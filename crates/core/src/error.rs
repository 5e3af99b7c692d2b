//! Error type shared by the core data model.

use std::fmt;

/// Errors raised while building or validating the core data model.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A probability was outside the half-open interval `(0, 1]`.
    ///
    /// A unit with probability zero is semantically identical to the item
    /// being absent from the transaction, so the model rejects it instead of
    /// silently keeping dead weight; values above one are not probabilities.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// A threshold ratio (`min_sup`, `min_esup`, or `pft`) was outside `(0, 1]`.
    InvalidRatio {
        /// Human-readable name of the parameter (e.g. `"min_sup"`).
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A transaction contained the same item twice.
    DuplicateItem {
        /// The duplicated item id.
        item: u32,
    },
    /// An item id above [`MAX_ITEM_ID`](crate::MAX_ITEM_ID).
    ItemIdTooLarge {
        /// The offending item id.
        item: u32,
    },
    /// An operation that requires a non-empty database got an empty one.
    EmptyDatabase,
    /// A malformed input line was encountered while parsing an external
    /// format (kept in core so data/miners can share it).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A transaction referenced an item id outside the vocabulary
    /// `0..num_items` it was offered to (e.g. a sliding window's).
    ItemOutOfVocabulary {
        /// The offending item id.
        item: u32,
        /// The vocabulary size.
        num_items: u32,
    },
    /// A measure × traversal combination that cannot exist: the traversal's
    /// data structure does not supply the statistics the measure judges on
    /// (e.g. exact measures need per-transaction probability vectors, which
    /// the UFP-tree's node aggregation destroys).
    UnsupportedCombination {
        /// The measure's stable name.
        measure: &'static str,
        /// The traversal's stable name.
        traversal: &'static str,
    },
    /// An algorithm that judges by frequent probability (Definition 4) was
    /// asked for expected-support itemsets (Definition 2).
    NotExpectedSupport {
        /// The algorithm's paper name.
        algorithm: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidProbability { value } => {
                write!(f, "probability {value} is outside (0, 1]")
            }
            CoreError::InvalidRatio { name, value } => {
                write!(f, "{name} = {value} is outside (0, 1]")
            }
            CoreError::DuplicateItem { item } => {
                write!(f, "transaction contains item {item} more than once")
            }
            CoreError::ItemIdTooLarge { item } => write!(
                f,
                "item id {item} is above the largest supported id {}",
                crate::MAX_ITEM_ID
            ),
            CoreError::EmptyDatabase => write!(f, "operation requires a non-empty database"),
            CoreError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            CoreError::ItemOutOfVocabulary { item, num_items } => {
                write!(f, "item {item} is outside the vocabulary 0..{num_items}")
            }
            CoreError::UnsupportedCombination { measure, traversal } => {
                write!(
                    f,
                    "the {measure} measure cannot run on the {traversal} traversal"
                )
            }
            CoreError::NotExpectedSupport { algorithm } => {
                write!(
                    f,
                    "{algorithm} does not mine expected-support itemsets (Definition 2)"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::InvalidProbability { value: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = CoreError::InvalidRatio {
            name: "min_sup",
            value: 0.0,
        };
        assert!(e.to_string().contains("min_sup"));
        let e = CoreError::DuplicateItem { item: 7 };
        assert!(e.to_string().contains('7'));
        let e = CoreError::ItemIdTooLarge { item: u32::MAX };
        assert!(e.to_string().contains("4294967295"));
        let e = CoreError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(CoreError::EmptyDatabase.to_string().contains("non-empty"));
        let e = CoreError::ItemOutOfVocabulary {
            item: 9,
            num_items: 6,
        };
        assert!(e.to_string().contains("item 9"));
        let e = CoreError::UnsupportedCombination {
            measure: "exact-dp",
            traversal: "tree",
        };
        assert!(e.to_string().contains("exact-dp"));
        assert!(e.to_string().contains("tree"));
        let e = CoreError::NotExpectedSupport { algorithm: "DCB" };
        assert!(e.to_string().contains("DCB"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CoreError::EmptyDatabase);
    }
}
