//! The debug-build lock-order recorder: Linux lockdep's idea, checked
//! over the acquisitions that actually run rather than the ones a lint
//! can read in one crate.
//!
//! Every lock has a *class*: the site that constructed it plus the type
//! it guards (a lock built through a generic `Default`, such as
//! `Arc<Mutex<_>>::default()`, reports a site inside `alloc`, so the site
//! alone would merge unrelated locks). Each thread keeps the locks its
//! guards hold. Taking a lock while holding others adds a (held → taken)
//! edge between their classes to one process-wide graph. Before the
//! thread blocks on the lock:
//!
//! * taking a lock the thread already holds panics — it would deadlock
//!   right there;
//! * an edge between two locks of one class panics — two threads nesting
//!   two instances in opposite order deadlock;
//! * a new edge that closes a cycle in the graph panics — the ABBA shape,
//!   whichever threads, crates and call depths the two orders come from.
//!
//! Each message names the construction and acquisition sites on both
//! sides. A `try_lock` cannot wait, so it adds no edge. [`crate::blocking`]
//! panics when the thread holds any guard at all.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::marker::PhantomData;
use std::panic::Location;
use std::sync::{Mutex, PoisonError};

type Site = &'static Location<'static>;

/// How classes compare: by construction site and type name.
type Key = (Site, &'static str);

/// A lock's class.
#[derive(Clone, Copy)]
pub(crate) struct Class {
    site: Site,
    /// `type_name::<T>`, called when needed: it is not a `const fn`.
    ty: fn() -> &'static str,
}

impl Class {
    /// The class of a `T` lock constructed at the caller.
    #[track_caller]
    pub(crate) const fn of<T: ?Sized>() -> Class {
        Class {
            site: Location::caller(),
            ty: std::any::type_name::<T>,
        }
    }

    fn key(self) -> Key {
        (self.site, (self.ty)())
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` (built at {})", (self.ty)(), self.site)
    }
}

/// One lock a thread holds (by address), and where it took it.
#[derive(Clone, Copy)]
struct Taken {
    lock: usize,
    class: Class,
    at: Site,
}

impl Taken {
    #[track_caller]
    fn at_caller<L: ?Sized>(class: Class, lock: &L) -> Taken {
        Taken {
            lock: (lock as *const L).cast::<()>() as usize,
            class,
            at: Location::caller(),
        }
    }
}

impl fmt::Display for Taken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} taken at {}", self.class, self.at)
    }
}

/// The first witness of a class edge: the lock held, then the one taken.
#[derive(Clone, Copy)]
struct Edge {
    held: Taken,
    taken: Taken,
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "holding {}, then {}", self.held, self.taken)
    }
}

thread_local! {
    static HELD: RefCell<Vec<Taken>> = const { RefCell::new(Vec::new()) };
}

/// Every class edge seen so far, by its (held, taken) classes.
static GRAPH: Mutex<BTreeMap<Key, BTreeMap<Key, Edge>>> = Mutex::new(BTreeMap::new());

/// Carried by a guard: takes its lock off this thread's held list on
/// drop. Not `Send`, like the guards that carry it.
pub(crate) struct Held {
    lock: usize,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for Held {
    fn drop(&mut self) {
        let _ = HELD.try_with(|held| {
            if let Ok(mut held) = held.try_borrow_mut() {
                if let Some(i) = held.iter().rposition(|t| t.lock == self.lock) {
                    held.remove(i);
                }
            }
        });
    }
}

/// Record that this thread now holds `lock`, taken at the caller,
/// without checking its order (a `try_lock` that succeeded).
#[track_caller]
pub(crate) fn hold<L: ?Sized>(class: Class, lock: &L) -> Held {
    let taken = Taken::at_caller(class, lock);
    let _ = HELD.try_with(|held| held.borrow_mut().push(taken));
    Held {
        lock: taken.lock,
        _this_thread: PhantomData,
    }
}

/// Check the order of taking `lock` at the caller against every lock
/// this thread holds, panic on a violation, and record it as held.
#[track_caller]
pub(crate) fn acquire<L: ?Sized>(class: Class, lock: &L) -> Held {
    let taken = Taken::at_caller(class, lock);
    if let Ok(Some(problem)) = HELD.try_with(|held| check(&held.borrow(), taken)) {
        panic!("{problem}");
    }
    hold(class, lock)
}

/// Panic if this thread holds any guard: a blocking call at `at` is
/// about to wait on another thread.
pub(crate) fn assert_none_held(at: Site) {
    let held = HELD
        .try_with(|held| held.borrow().iter().map(Taken::to_string).collect())
        .unwrap_or_else(|_| Vec::new());
    if !held.is_empty() {
        panic!(
            "blocking call at {at} while holding\n  {}",
            held.join("\n  ")
        );
    }
}

/// What is wrong with taking `taken` while holding `held`, if anything;
/// records the new edges otherwise.
fn check(held: &[Taken], taken: Taken) -> Option<String> {
    if let Some(h) = held.iter().find(|h| h.lock == taken.lock) {
        return Some(format!(
            "lock re-taken by the thread holding it: {taken}, held since {}",
            h.at
        ));
    }
    if held.is_empty() {
        return None;
    }
    let mut graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
    held.iter()
        .find_map(|&held| add_edge(&mut graph, Edge { held, taken }))
}

fn add_edge(graph: &mut BTreeMap<Key, BTreeMap<Key, Edge>>, edge: Edge) -> Option<String> {
    let (from, to) = (edge.held.class.key(), edge.taken.class.key());
    if graph.get(&from).is_some_and(|out| out.contains_key(&to)) {
        return None;
    }
    if from == to {
        return Some(format!("two locks of one class nested: {edge}"));
    }
    if let Some(reverse) = path(graph, to, from) {
        let reverse: Vec<String> = reverse.iter().map(Edge::to_string).collect();
        return Some(format!(
            "lock order cycle: {edge}\nwhile the reverse order was seen before:\n  {}",
            reverse.join("\n  ")
        ));
    }
    graph.entry(from).or_default().insert(to, edge);
    None
}

/// The edges of a shortest path `from` →* `to`, if the graph has one.
fn path(graph: &BTreeMap<Key, BTreeMap<Key, Edge>>, from: Key, to: Key) -> Option<Vec<Edge>> {
    let mut reached_by: BTreeMap<Key, Edge> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(class) = queue.pop_front() {
        if class == to {
            let mut edges = Vec::new();
            let mut at = to;
            while at != from {
                let edge = reached_by[&at];
                edges.push(edge);
                at = edge.held.class.key();
            }
            edges.reverse();
            return Some(edges);
        }
        for (&next, &edge) in graph.get(&class).into_iter().flatten() {
            if next != from && !reached_by.contains_key(&next) {
                reached_by.insert(next, edge);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::{blocking, Mutex, RwLock};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The panic message of `f`, which must panic.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("no lock-order panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| String::from("<not a String>"))
    }

    /// `file:line:` of a site in this file.
    fn site(line: u32) -> String {
        format!("{}:{line}:", file!())
    }

    /// Two fields of one struct, taken in opposite orders by two
    /// functions: the ABBA shape.
    #[test]
    fn abba_cycle_panics_naming_both_orders() {
        struct Shared {
            watermark: Mutex<u64>,
            incidents: Mutex<Vec<u32>>,
        }
        let (watermark, incidents) = (Mutex::new(0), Mutex::new(Vec::new()));
        let built = line!() - 1;
        let s = Shared {
            watermark,
            incidents,
        };
        let forward = {
            let _wm = s.watermark.lock();
            let _inc = s.incidents.lock();
            line!() - 1
        };
        let collect = line!() + 2;
        let msg = panic_of(|| {
            let _inc = s.incidents.lock();
            let _wm = s.watermark.lock();
        });
        assert!(msg.starts_with("lock order cycle"), "{msg}");
        // Both classes, by construction site and type.
        assert!(msg.contains(&site(built)), "{msg}");
        assert!(
            msg.contains("alloc::vec::Vec<u32>") && msg.contains("`u64`"),
            "{msg}"
        );
        // This order's two acquisitions, and the other order's.
        for line in [collect, collect + 1, forward - 1, forward] {
            assert!(msg.contains(&site(line)), "line {line} missing: {msg}");
        }
        // The cycle was refused, not recorded: the first order still runs.
        let _wm = s.watermark.lock();
        let _inc = s.incidents.lock();
    }

    /// A cycle through a third lock is a cycle too.
    #[test]
    fn three_party_cycle_panics() {
        let (a, b, c) = (Mutex::new(1), Mutex::new(2), Mutex::new(3));
        drop((a.lock(), b.lock()));
        drop((b.lock(), c.lock()));
        let msg = panic_of(|| drop((c.lock(), a.lock())));
        assert!(msg.starts_with("lock order cycle"), "{msg}");
        assert_eq!(msg.matches("\n  holding").count(), 2, "{msg}");
    }

    /// A guard held across a channel `send`: the wait that wedges a full
    /// bounded channel's consumer when it needs the same lock.
    #[test]
    fn guard_across_send_panics() {
        let state = Mutex::new(7u8);
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let taken = line!() + 2;
        let msg = panic_of(|| {
            let g = state.lock();
            let _ = blocking(|| tx.send(*g));
        });
        assert!(
            msg.starts_with(&format!("blocking call at {}", site(taken + 1))),
            "{msg}"
        );
        assert!(msg.contains(&site(taken)), "{msg}");
        assert!(rx.try_recv().is_err(), "the send ran");
        // With the guard dropped first, the same call goes through.
        let v = *state.lock();
        blocking(|| tx.send(v)).expect("receiver alive");
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn re_taking_a_held_lock_panics_instead_of_deadlocking() {
        let names = RwLock::new(vec![1]);
        let first = line!() + 2;
        let msg = panic_of(|| {
            let _g = names.read();
            names.write().push(2);
        });
        assert!(msg.starts_with("lock re-taken"), "{msg}");
        assert!(
            msg.contains(&site(first)) && msg.contains(&site(first + 1)),
            "{msg}"
        );
        assert_eq!(*names.read(), vec![1]);
    }

    #[test]
    fn nesting_two_locks_of_one_class_panics() {
        let cells: Vec<Mutex<u8>> = (0..2).map(Mutex::new).collect();
        let msg = panic_of(|| drop((cells[0].lock(), cells[1].lock())));
        assert!(msg.starts_with("two locks of one class nested"), "{msg}");
    }

    #[test]
    fn try_lock_adds_no_edge() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        drop((b.lock(), a.lock()));
        // a → b would close a cycle, but a try_lock cannot wait.
        let _a = a.lock();
        assert!(b.try_lock().is_some());
    }

    #[test]
    fn sequential_and_consistent_orders_pass() {
        let (a, b) = (RwLock::new(0), Mutex::new(0));
        *a.write() += 1;
        *b.lock() += 1;
        *b.lock() += 1;
        *a.write() += 1;
        for _ in 0..3 {
            let _r = a.read();
            *b.lock() += 1;
        }
        std::thread::scope(|s| {
            s.spawn(|| drop((a.read(), b.lock())));
        });
        assert_eq!((*a.read(), *b.lock()), (2, 5));
    }
}
