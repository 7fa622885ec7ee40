//! Labeling: threshold labels for event detection.

/// A labeled or unlabeled sample reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Label {
    /// Ground-truth label.
    Known(i64),
    /// Still unlabeled.
    Unknown,
}

/// Threshold labeler for event detection (e.g. "disruption within the
/// next window when plasma current collapse rate exceeds θ").
pub fn threshold_labels(values: &[f64], theta: f64) -> Vec<Label> {
    values
        .iter()
        .map(|&v| {
            if v.is_nan() {
                Label::Unknown
            } else {
                Label::Known((v > theta) as i64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_basics() {
        let labels = threshold_labels(&[0.1, 0.9, f64::NAN, 0.5], 0.5);
        assert_eq!(labels[0], Label::Known(0));
        assert_eq!(labels[1], Label::Known(1));
        assert_eq!(labels[2], Label::Unknown);
        assert_eq!(labels[3], Label::Known(0)); // strict >
    }

    #[test]
    fn a_label_is_a_tag_and_a_class() {
        // One label per row of the table: a variant with a payload wider
        // than the class would widen every one of them.
        assert_eq!(std::mem::size_of::<Label>(), 16);
    }
}
