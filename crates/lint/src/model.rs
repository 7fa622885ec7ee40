//! A lightweight item/block model layered on the lexer.
//!
//! The v1 rules are purely lexical — they match token patterns anywhere
//! in a file. The concurrency rules added in v2 need *structure*: which
//! function a token lives in, which block a `let` guard is bound in,
//! and which struct fields are `Mutex`/`RwLock`/`Gauge` typed. This
//! module recovers exactly that much structure from the token stream —
//! no expression parsing, no type resolution — via brace/paren/angle
//! matching over the already comment- and literal-clean token list.
//!
//! Everything here is an approximation and is documented as such where
//! it matters:
//!
//! * a guard bound with `let g = x.lock();` is modelled as live until
//!   the end of its enclosing block, or an explicit `drop(g)`;
//! * a guard born as a temporary in a `match`/`for`/`if let`/`while
//!   let` scrutinee is live until the end of the construct's first
//!   block (true Rust semantics keep match scrutinee temporaries alive
//!   through every arm — the first block is a sound lower bound that
//!   avoids false positives from `else` chains);
//! * a plain-`if`/`while` condition temporary dies at the block open,
//!   matching Rust's drop-before-branch semantics;
//! * any other temporary dies at the end of its statement.

use crate::lexer::{LexFile, Tok};
use std::collections::HashMap;

/// What flavour of lock a field holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex<_>` (std or parking_lot).
    Mutex,
    /// `RwLock<_>`.
    RwLock,
}

/// A struct field or static whose type contains a lock.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Field/static identifier — the lock's name in the order graph.
    pub name: String,
    /// Declaration line.
    pub line: u32,
    /// Mutex or RwLock.
    pub kind: LockKind,
}

/// A struct field whose type mentions `Gauge`.
#[derive(Debug, Clone)]
pub struct GaugeDecl {
    /// Field identifier.
    pub name: String,
    /// Declaration line.
    pub line: u32,
}

/// One `fn` item (free function or method — the model does not care).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token indices of the body's `{` and its matching `}`.
    pub body: (usize, usize),
}

/// One `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// Line of the `impl` keyword.
    pub line: u32,
    /// Token indices of the block's `{` and its matching `}`.
    pub body: (usize, usize),
}

/// Structural model of one source file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Every `fn` with a body, in source order (methods included).
    pub fns: Vec<FnItem>,
    /// Every `impl` block.
    pub impls: Vec<ImplItem>,
    /// Lock-typed struct fields and statics declared in this file.
    pub locks: Vec<LockDecl>,
    /// Gauge-typed struct fields declared in this file.
    pub gauges: Vec<GaugeDecl>,
    /// `open brace token index -> closing brace token index` (and the
    /// reverse) for the whole file.
    pub braces: HashMap<usize, usize>,
}

/// One `.lock()` / `.read()` / `.write()` call whose receiver resolves
/// to a known lock name.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Lock name (the receiver's trailing field identifier).
    pub lock: String,
    /// `lock`, `read`, or `write`.
    pub method: String,
    /// Token index of the method identifier.
    pub token: usize,
    /// Source line.
    pub line: u32,
}

/// A lock guard and the token range over which it is live.
#[derive(Debug, Clone)]
pub struct GuardSpan {
    /// The acquisition that produced the guard.
    pub acq: Acquisition,
    /// Live token range, inclusive on both ends.
    pub live: (usize, usize),
    /// True when bound to a named variable (`let g = ...`).
    pub named: bool,
}

/// Build the structural model for one lexed file.
pub fn build(lex: &LexFile) -> FileModel {
    let toks = &lex.tokens;
    let mut model = FileModel {
        braces: match_braces(toks),
        ..FileModel::default()
    };
    let mut i = 0usize;
    while i < toks.len() {
        let Some(kw) = lex.ident_at(i) else {
            i += 1;
            continue;
        };
        match kw {
            "fn" => {
                // `fn` pointer types (`fn(u8) -> u8`) have no name —
                // only named items get a body entry.
                let Some(name) = lex.ident_at(i + 1) else {
                    i += 1;
                    continue;
                };
                match signature_end(lex, i + 2) {
                    SigEnd::Body(open) => {
                        let close = model.braces.get(&open).copied().unwrap_or(open);
                        model.fns.push(FnItem {
                            name: name.to_string(),
                            line: toks[i].line,
                            body: (open, close),
                        });
                        i = open + 1; // descend: nested fns are found too
                    }
                    SigEnd::Decl(after) => i = after,
                }
            }
            "impl" => {
                match signature_end(lex, i + 1) {
                    SigEnd::Body(open) => {
                        let close = model.braces.get(&open).copied().unwrap_or(open);
                        model.impls.push(ImplItem {
                            line: toks[i].line,
                            body: (open, close),
                        });
                        i = open + 1; // descend into methods
                    }
                    SigEnd::Decl(after) => i = after,
                }
            }
            "struct" => {
                i = scan_struct(lex, i, &mut model);
            }
            "static" | "const" => {
                i = scan_static(lex, i, &mut model);
            }
            _ => i += 1,
        }
    }
    model
}

/// Where a signature scan ended.
enum SigEnd {
    /// Token index of the body's `{`.
    Body(usize),
    /// Token index just past a `;` (bodyless declaration).
    Decl(usize),
}

/// Scan from `start` (just past `fn name` / `impl`) to the item's body
/// `{` or terminating `;`, skipping generics, parameter lists, return
/// types and where clauses. Angle depth treats `->` and `=>` arrows as
/// non-closing so `Fn(A) -> B` bounds do not unbalance the scan.
fn signature_end(lex: &LexFile, start: usize) -> SigEnd {
    let toks = &lex.tokens;
    let mut angle = 0i64;
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut i = start;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::P('<') => angle += 1,
            Tok::P('>') => {
                let arrow = i > 0 && (lex.punct_at(i - 1, '-') || lex.punct_at(i - 1, '='));
                if !arrow && angle > 0 {
                    angle -= 1;
                }
            }
            Tok::P('(') => paren += 1,
            Tok::P(')') => paren -= 1,
            Tok::P('[') => bracket += 1,
            Tok::P(']') => bracket -= 1,
            Tok::P('{') if angle == 0 && paren == 0 && bracket == 0 => return SigEnd::Body(i),
            Tok::P(';') if angle == 0 && paren == 0 && bracket == 0 => return SigEnd::Decl(i + 1),
            _ => {}
        }
        i += 1;
    }
    SigEnd::Decl(i)
}

/// Parse `struct Name { field: Type, ... }` collecting lock- and
/// gauge-typed fields. Tuple structs have unnameable fields and are
/// skipped. Returns the index to resume scanning from.
fn scan_struct(lex: &LexFile, kw: usize, model: &mut FileModel) -> usize {
    let toks = &lex.tokens;
    let open = match signature_end(lex, kw + 1) {
        SigEnd::Body(open) => open,
        SigEnd::Decl(after) => return after, // unit or tuple struct
    };
    let close = model.braces.get(&open).copied().unwrap_or(open);
    let mut i = open + 1;
    while i < close {
        // Field grammar: [pub [(..)]] name ':' type-tokens (',' | '}').
        if lex.ident_at(i) == Some("pub") {
            i += 1;
            if lex.punct_at(i, '(') {
                i = skip_delim(lex, i, '(', ')');
            }
        }
        let (Some(name), true) = (lex.ident_at(i), lex.punct_at(i + 1, ':')) else {
            i += 1;
            continue;
        };
        let name_line = toks[i].line;
        // Type tokens run to the `,` at depth 0 (or the struct's `}`).
        let mut j = i + 2;
        let mut depth = 0i64;
        let mut kind: Option<LockKind> = None;
        let mut has_gauge = false;
        while j < close {
            match &toks[j].kind {
                Tok::P('<') | Tok::P('(') | Tok::P('[') => depth += 1,
                Tok::P('>') | Tok::P(')') | Tok::P(']') => depth -= 1,
                Tok::P(',') if depth <= 0 => break,
                Tok::Ident(t) => {
                    if t == "Mutex" {
                        kind = kind.or(Some(LockKind::Mutex));
                    } else if t == "RwLock" {
                        kind = kind.or(Some(LockKind::RwLock));
                    } else if t == "Gauge" {
                        has_gauge = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(kind) = kind {
            model.locks.push(LockDecl {
                name: name.to_string(),
                line: name_line,
                kind,
            });
        }
        if has_gauge {
            model.gauges.push(GaugeDecl {
                name: name.to_string(),
                line: name_line,
            });
        }
        i = j + 1;
    }
    close + 1
}

/// Parse `static NAME: Type = ...;` / `const NAME: Type = ...;` for
/// lock-typed globals. Returns the index to resume from.
fn scan_static(lex: &LexFile, kw: usize, model: &mut FileModel) -> usize {
    let toks = &lex.tokens;
    let mut i = kw + 1;
    if lex.ident_at(i) == Some("mut") {
        i += 1;
    }
    let (Some(name), true) = (lex.ident_at(i), lex.punct_at(i + 1, ':')) else {
        return kw + 1;
    };
    let name_line = toks[i].line;
    let mut j = i + 2;
    let mut kind: Option<LockKind> = None;
    while j < toks.len() {
        match &toks[j].kind {
            Tok::P('=') | Tok::P(';') => break,
            Tok::Ident(t) if t == "Mutex" => kind = kind.or(Some(LockKind::Mutex)),
            Tok::Ident(t) if t == "RwLock" => kind = kind.or(Some(LockKind::RwLock)),
            _ => {}
        }
        j += 1;
    }
    if let Some(kind) = kind {
        model.locks.push(LockDecl {
            name: name.to_string(),
            line: name_line,
            kind,
        });
    }
    j
}

/// Skip from an opening delimiter at `open` to just past its match.
fn skip_delim(lex: &LexFile, open: usize, oc: char, cc: char) -> usize {
    lex.match_delim(open, oc, cc)
        .map(|c| c + 1)
        .unwrap_or(open + 1)
}

/// Map every `{` to its `}` and back.
fn match_braces(toks: &[crate::lexer::Token]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            Tok::P('{') => stack.push(i),
            Tok::P('}') => {
                if let Some(open) = stack.pop() {
                    map.insert(open, i);
                    map.insert(i, open);
                }
            }
            _ => {}
        }
    }
    map
}

/// The acquisition methods the lock rules recognise. All three take no
/// arguments, which is what separates `RwLock::read()`/`write()` from
/// the ubiquitous `io::Read::read(buf)` / `io::Write::write(buf)`.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// How the statement containing an acquisition binds its guard.
#[derive(Debug, Clone, PartialEq)]
enum StmtShape {
    /// `let g = ...;` with a simple identifier pattern.
    LetNamed(String),
    /// `let _ = ...` / destructuring `let` — guard dies with the
    /// statement (`let _ = x.lock()` drops immediately; close enough).
    LetAnon,
    /// `match` / `for` / `if let` / `while let` — scrutinee temporary,
    /// live through the construct's first block.
    Scrutinee,
    /// Plain `if` / `while` condition — temporary dies at block open.
    Condition,
    /// Anything else — temporary dies at statement end.
    Plain,
}

/// Find every recognised acquisition in `body` and compute its guard's
/// live span. `locks` maps lock name -> kind for the whole crate.
pub fn guard_spans(
    lex: &LexFile,
    body: (usize, usize),
    locks: &HashMap<String, LockKind>,
    braces: &HashMap<usize, usize>,
) -> Vec<GuardSpan> {
    let toks = &lex.tokens;
    let (open, close) = body;
    let mut spans = Vec::new();
    // Statement boundaries: a new statement starts after `;`, `{`, `}`.
    let mut stmt_start = open + 1;
    // Enclosing blocks: token index of each unclosed `{` seen so far.
    let mut block_stack: Vec<usize> = vec![open];
    let mut i = open + 1;
    while i < close {
        match &toks[i].kind {
            Tok::P('{') => {
                block_stack.push(i);
                stmt_start = i + 1;
            }
            Tok::P('}') => {
                block_stack.pop();
                stmt_start = i + 1;
            }
            Tok::P(';') => stmt_start = i + 1,
            Tok::Ident(m)
                if ACQUIRE_METHODS.contains(&m.as_str())
                    && lex.punct_at(i.wrapping_sub(1), '.')
                    && lex.punct_at(i + 1, '(')
                    && lex.punct_at(i + 2, ')') =>
            {
                if let Some(lock) = receiver_name(lex, i - 1) {
                    if locks.contains_key(&lock) {
                        let enclosing = block_stack.last().copied().unwrap_or(open);
                        let block_end = braces.get(&enclosing).copied().unwrap_or(close);
                        let shape = stmt_shape(lex, stmt_start);
                        let (live_end, named) = match &shape {
                            StmtShape::LetNamed(g) if binds_guard_directly(lex, stmt_start, i) => {
                                (drop_site(lex, i, block_end, g).unwrap_or(block_end), true)
                            }
                            // `let n = x.lock().len();` / `let v = *x.lock();`
                            // bind a derived value — the guard itself is a
                            // temporary and dies with the statement.
                            StmtShape::LetNamed(_) => (stmt_end(lex, i, close), false),
                            StmtShape::Scrutinee => (scrutinee_end(lex, i, braces, close), false),
                            StmtShape::Condition => (next_block_open(lex, i, close), false),
                            StmtShape::LetAnon | StmtShape::Plain => {
                                (stmt_end(lex, i, close), false)
                            }
                        };
                        spans.push(GuardSpan {
                            acq: Acquisition {
                                lock,
                                method: m.clone(),
                                token: i,
                                line: toks[i].line,
                            },
                            live: (i, live_end.min(close)),
                            named,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// Resolve the receiver's trailing field identifier for a method call:
/// the token before the `.` at `dot`, skipping one index `[...]` group
/// (`self.inflight[s].add(1)` resolves to `inflight`).
pub(crate) fn receiver_name(lex: &LexFile, dot: usize) -> Option<String> {
    let mut i = dot.checked_sub(1)?;
    if lex.punct_at(i, ']') {
        // Walk back to the matching `[`.
        let mut depth = 0i64;
        loop {
            match lex.tokens.get(i).map(|t| &t.kind) {
                Some(Tok::P(']')) => depth += 1,
                Some(Tok::P('[')) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                None => return None,
                _ => {}
            }
            i = i.checked_sub(1)?;
        }
        i = i.checked_sub(1)?;
    }
    lex.ident_at(i).map(str::to_string)
}

/// Classify the statement starting at `stmt`.
fn stmt_shape(lex: &LexFile, stmt: usize) -> StmtShape {
    match lex.ident_at(stmt) {
        Some("let") => {
            let mut i = stmt + 1;
            if lex.ident_at(i) == Some("mut") {
                i += 1;
            }
            match lex.ident_at(i) {
                Some(name) if lex.punct_at(i + 1, '=') || lex.punct_at(i + 1, ':') => {
                    StmtShape::LetNamed(name.to_string())
                }
                _ => StmtShape::LetAnon,
            }
        }
        Some("match") | Some("for") => StmtShape::Scrutinee,
        Some("if") | Some("while") => {
            if lex.ident_at(stmt + 1) == Some("let") {
                StmtShape::Scrutinee
            } else {
                StmtShape::Condition
            }
        }
        _ => StmtShape::Plain,
    }
}

/// True when a `let` statement binds the guard itself: the acquisition
/// call is the whole initializer (`let g = x.lock();`) rather than a
/// value derived from a temporary guard (`let n = x.lock().len();`,
/// `let v = *x.lock();`). `acq` is the method-ident token.
fn binds_guard_directly(lex: &LexFile, stmt: usize, acq: usize) -> bool {
    // Nothing may follow the call but the statement's `;`.
    if !lex.punct_at(acq + 3, ';') {
        return false;
    }
    // A leading deref copies out of the guard instead of binding it.
    match (stmt..acq).find(|&k| lex.punct_at(k, '=')) {
        Some(eq) => !lex.punct_at(eq + 1, '*'),
        None => false,
    }
}

/// Token index of `drop ( g )` after `from` (searching to `limit`).
fn drop_site(lex: &LexFile, from: usize, limit: usize, guard: &str) -> Option<usize> {
    (from..limit).find(|&i| {
        lex.ident_at(i) == Some("drop")
            && lex.punct_at(i + 1, '(')
            && lex.ident_at(i + 2) == Some(guard)
            && lex.punct_at(i + 3, ')')
    })
}

/// End of a scrutinee temporary's span: the `}` matching the first `{`
/// found at relative paren/bracket depth 0 after the acquisition
/// (braces inside call arguments — closures — are skipped by the depth
/// guard).
fn scrutinee_end(
    lex: &LexFile,
    from: usize,
    braces: &HashMap<usize, usize>,
    limit: usize,
) -> usize {
    let open = next_block_open(lex, from, limit);
    braces.get(&open).copied().unwrap_or(limit)
}

/// First `{` at relative paren/bracket depth 0 after `from`.
fn next_block_open(lex: &LexFile, from: usize, limit: usize) -> usize {
    let mut depth = 0i64;
    for i in from..limit {
        match lex.tokens.get(i).map(|t| &t.kind) {
            Some(Tok::P('(')) | Some(Tok::P('[')) => depth += 1,
            Some(Tok::P(')')) | Some(Tok::P(']')) => depth -= 1,
            Some(Tok::P('{')) if depth <= 0 => return i,
            _ => {}
        }
    }
    limit
}

/// End of a plain temporary's span: the next `;` at relative depth 0.
fn stmt_end(lex: &LexFile, from: usize, limit: usize) -> usize {
    let mut depth = 0i64;
    for i in from..limit {
        match lex.tokens.get(i).map(|t| &t.kind) {
            Some(Tok::P('(')) | Some(Tok::P('[')) | Some(Tok::P('{')) => depth += 1,
            Some(Tok::P(')')) | Some(Tok::P(']')) | Some(Tok::P('}')) => depth -= 1,
            Some(Tok::P(';')) if depth <= 0 => return i,
            _ => {}
        }
    }
    limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model_of(src: &str) -> FileModel {
        build(&lex(src))
    }

    #[test]
    fn fns_and_impls_found() {
        let src = r#"
fn free(x: u8) -> u8 { x }
struct S { a: u32 }
impl S {
    fn method<'a, F: Fn(u8) -> u8>(&'a self, f: F) -> u8 { f(self.a as u8) }
}
trait T { fn decl(&self); }
"#;
        let m = model_of(src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "method"]);
        assert_eq!(m.impls.len(), 1);
        // Bodies are properly brace-matched ranges.
        for f in &m.fns {
            assert!(f.body.0 < f.body.1, "{f:?}");
        }
    }

    #[test]
    fn lock_and_gauge_fields_found() {
        let src = r#"
pub struct Shared<'a> {
    pub index: Mutex<Vec<u8>>,
    names: parking_lot::RwLock<HashMap<String, u32>>,
    depth: Arc<Gauge>,
    inflight: &'a [Arc<Gauge>],
    plain: usize,
}
static GLOBAL: Mutex<u8> = Mutex::new(0);
"#;
        let m = model_of(src);
        let locks: Vec<(&str, LockKind)> =
            m.locks.iter().map(|l| (l.name.as_str(), l.kind)).collect();
        assert_eq!(
            locks,
            vec![
                ("index", LockKind::Mutex),
                ("names", LockKind::RwLock),
                ("GLOBAL", LockKind::Mutex),
            ]
        );
        let gauges: Vec<&str> = m.gauges.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(gauges, vec!["depth", "inflight"]);
    }

    fn spans_of(src: &str, lock_names: &[(&str, LockKind)]) -> Vec<GuardSpan> {
        let f = lex(src);
        let m = build(&f);
        let locks: HashMap<String, LockKind> = lock_names
            .iter()
            .map(|(n, k)| (n.to_string(), *k))
            .collect();
        let body = m.fns[0].body;
        guard_spans(&f, body, &locks, &m.braces)
    }

    #[test]
    fn named_guard_lives_to_block_end() {
        let src = r#"
fn f(s: &S) {
    let g = s.index.lock();
    use_it(&g);
    more();
}
"#;
        let spans = spans_of(src, &[("index", LockKind::Mutex)]);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].named);
        // Live to the fn's closing brace — past the `more()` call.
        let f = lex(src);
        let more = f
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, Tok::Ident(s) if s == "more"))
            .unwrap();
        assert!(spans[0].live.1 > more);
    }

    #[test]
    fn drop_ends_named_guard() {
        let src = r#"
fn f(s: &S) {
    let g = s.index.lock();
    use_it(&g);
    drop(g);
    after();
}
"#;
        let spans = spans_of(src, &[("index", LockKind::Mutex)]);
        let f = lex(src);
        let after = f
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, Tok::Ident(s) if s == "after"))
            .unwrap();
        assert!(spans[0].live.1 < after, "{spans:?}");
    }

    #[test]
    fn temporary_dies_at_statement_end() {
        let src = r#"
fn f(s: &S) {
    s.index.lock().push(1);
    later();
}
"#;
        let spans = spans_of(src, &[("index", LockKind::Mutex)]);
        let f = lex(src);
        let later = f
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, Tok::Ident(s) if s == "later"))
            .unwrap();
        assert_eq!(spans.len(), 1);
        assert!(!spans[0].named);
        assert!(spans[0].live.1 < later);
    }

    #[test]
    fn scrutinee_guard_spans_loop_body() {
        let src = r#"
fn f(s: &S) {
    for x in s.index.lock().iter() {
        work(x);
    }
    outside();
}
"#;
        let spans = spans_of(src, &[("index", LockKind::Mutex)]);
        let f = lex(src);
        let work = f
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, Tok::Ident(s) if s == "work"))
            .unwrap();
        let outside = f
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, Tok::Ident(s) if s == "outside"))
            .unwrap();
        assert!(spans[0].live.1 > work);
        assert!(spans[0].live.1 < outside);
    }

    #[test]
    fn plain_if_condition_guard_dies_at_block() {
        let src = r#"
fn f(s: &S) {
    if s.names.read().is_empty() {
        inside();
    }
}
"#;
        let spans = spans_of(src, &[("names", LockKind::RwLock)]);
        let f = lex(src);
        let inside = f
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, Tok::Ident(s) if s == "inside"))
            .unwrap();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].live.1 < inside, "{spans:?}");
    }

    #[test]
    fn io_read_write_with_args_not_an_acquisition() {
        let src = r#"
fn f(s: &S, buf: &mut [u8]) {
    s.file.read(buf);
    s.file.write(buf);
    s.names.write().insert(1);
}
"#;
        let spans = spans_of(
            src,
            &[("file", LockKind::RwLock), ("names", LockKind::RwLock)],
        );
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].acq.lock, "names");
    }

    #[test]
    fn indexed_receiver_resolves() {
        let src = "fn f(s: &S, i: usize) { let g = s.cells[i].lock(); g.touch(); }";
        let spans = spans_of(src, &[("cells", LockKind::Mutex)]);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].acq.lock, "cells");
    }
}
