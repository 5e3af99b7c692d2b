//! Readers and writers for the FIMI transaction format and its uncertain
//! extension.
//!
//! * **FIMI** (deterministic): one transaction per line, space-separated
//!   item ids — the format of the repository the paper draws its benchmarks
//!   from (`http://fimi.us.ac.be`).
//! * **Uncertain FIMI** (this workspace's extension): one transaction per
//!   line, space-separated `item:prob` units, e.g. `0:0.8 2:0.9 5:0.7`.
//!   Lines may be empty (an empty transaction keeps `N` stable).
//!
//! Both parsers are streaming (`BufRead`), tolerate `\r\n`, skip `#`
//! comments, and report 1-based line numbers on error — including an item
//! id above [`MAX_ITEM_ID`].

use crate::deterministic::DeterministicDatabase;
use std::io::{self, BufRead, Write};
use ufim_core::{CoreError, ItemId, Transaction, UncertainDatabase, MAX_ITEM_ID};

/// Errors from reading external dataset files.
#[derive(Debug)]
pub enum FimiError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed content.
    Parse(CoreError),
}

impl std::fmt::Display for FimiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FimiError::Io(e) => write!(f, "I/O error: {e}"),
            FimiError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FimiError {}

impl From<io::Error> for FimiError {
    fn from(e: io::Error) -> Self {
        FimiError::Io(e)
    }
}

impl From<CoreError> for FimiError {
    fn from(e: CoreError) -> Self {
        FimiError::Parse(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> FimiError {
    FimiError::Parse(CoreError::Parse {
        line,
        message: message.into(),
    })
}

/// Reads a deterministic FIMI file.
pub fn read_fimi<R: BufRead>(reader: R) -> Result<DeterministicDatabase, FimiError> {
    let mut transactions = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        let mut t: Vec<ItemId> = Vec::new();
        for tok in line.split_ascii_whitespace() {
            let item: ItemId = tok
                .parse()
                .map_err(|_| parse_err(idx + 1, format!("invalid item id {tok:?}")))?;
            if item > MAX_ITEM_ID {
                return Err(parse_err(
                    idx + 1,
                    CoreError::ItemIdTooLarge { item }.to_string(),
                ));
            }
            t.push(item);
        }
        transactions.push(t);
    }
    Ok(DeterministicDatabase::new(transactions))
}

/// Writes a deterministic database in FIMI format.
pub fn write_fimi<W: Write>(db: &DeterministicDatabase, mut writer: W) -> io::Result<()> {
    for t in db.transactions() {
        let mut first = true;
        for &item in t {
            if first {
                first = false;
            } else {
                writer.write_all(b" ")?;
            }
            write!(writer, "{item}")?;
        }
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

/// Reads an uncertain FIMI file (`item:prob` units).
pub fn read_uncertain<R: BufRead>(reader: R) -> Result<UncertainDatabase, FimiError> {
    let mut transactions = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        let mut units: Vec<(ItemId, f64)> = Vec::new();
        for tok in line.split_ascii_whitespace() {
            let (item_s, prob_s) = tok
                .split_once(':')
                .ok_or_else(|| parse_err(idx + 1, format!("unit {tok:?} lacks ':'")))?;
            let item: ItemId = item_s
                .parse()
                .map_err(|_| parse_err(idx + 1, format!("invalid item id {item_s:?}")))?;
            let prob: f64 = prob_s
                .parse()
                .map_err(|_| parse_err(idx + 1, format!("invalid probability {prob_s:?}")))?;
            units.push((item, prob));
        }
        // Transaction::new validates probabilities, duplicates and item ids;
        // remap its error to carry the line number.
        let t = Transaction::new(units).map_err(|e| parse_err(idx + 1, e.to_string()))?;
        transactions.push(t);
    }
    Ok(UncertainDatabase::from_transactions(transactions))
}

/// Writes an uncertain database in `item:prob` format. Probabilities are
/// written with enough digits (`{:.17e}`-free shortest form via `{}`) to
/// round-trip exactly.
pub fn write_uncertain<W: Write>(db: &UncertainDatabase, mut writer: W) -> io::Result<()> {
    for t in db.transactions() {
        let mut first = true;
        for (item, prob) in t.units() {
            if first {
                first = false;
            } else {
                writer.write_all(b" ")?;
            }
            write!(writer, "{item}:{prob}")?;
        }
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fimi_roundtrip() {
        let db = DeterministicDatabase::new(vec![vec![3, 1, 2], vec![], vec![10]]);
        let mut buf = Vec::new();
        write_fimi(&db, &mut buf).unwrap();
        assert_eq!(String::from_utf8_lossy(&buf), "1 2 3\n\n10\n");
        let back = read_fimi(Cursor::new(buf)).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn fimi_skips_comments_and_crlf() {
        let input = "# header\r\n1 2\r\n\r\n3\n";
        let db = read_fimi(Cursor::new(input)).unwrap();
        assert_eq!(db.num_transactions(), 3);
        assert_eq!(db.transactions()[0], vec![1, 2]);
        assert!(db.transactions()[1].is_empty());
    }

    #[test]
    fn fimi_reports_line_numbers() {
        let err = read_fimi(Cursor::new("1 2\nx y\n")).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn uncertain_roundtrip_exact() {
        let db = ufim_core::examples::paper_table1();
        let mut buf = Vec::new();
        write_uncertain(&db, &mut buf).unwrap();
        let back = read_uncertain(Cursor::new(buf)).unwrap();
        assert_eq!(back.num_transactions(), db.num_transactions());
        for (a, b) in back.transactions().iter().zip(db.transactions()) {
            assert_eq!(a.items(), b.items());
            assert_eq!(a.probs(), b.probs()); // bitwise round-trip
        }
    }

    #[test]
    fn uncertain_rejects_malformed_units() {
        assert!(read_uncertain(Cursor::new("1-0.5\n")).is_err());
        assert!(read_uncertain(Cursor::new("a:0.5\n")).is_err());
        assert!(read_uncertain(Cursor::new("1:zz\n")).is_err());
        let err = read_uncertain(Cursor::new("1:0.5\n2:1.5\n")).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn uncertain_empty_lines_keep_n() {
        let db = read_uncertain(Cursor::new("0:0.5\n\n1:0.25\n")).unwrap();
        assert_eq!(db.num_transactions(), 3);
        assert!(db.transactions()[1].is_empty());
    }

    #[test]
    fn item_ids_above_the_cap_are_line_numbered_errors() {
        let too_large = |r: Result<(), FimiError>| match r {
            Err(FimiError::Parse(CoreError::Parse { line, message })) => {
                assert!(
                    message.contains("above the largest supported id"),
                    "{message}"
                );
                line
            }
            other => panic!("expected a parse error, got {other:?}"),
        };
        // u32::MAX used to wrap the vocabulary to 0 items; u32::MAX − 1
        // used to size every per-item array at 2^32 entries.
        for id in [u32::MAX, u32::MAX - 1, MAX_ITEM_ID + 1] {
            let text = format!("1:0.9\n{id}:0.5 1:0.5\n");
            assert_eq!(too_large(read_uncertain(Cursor::new(text)).map(drop)), 2);
            let text = format!("1 2\n\n3 {id}\n");
            assert_eq!(too_large(read_fimi(Cursor::new(text)).map(drop)), 3);
        }
        let db = read_uncertain(Cursor::new(format!("{MAX_ITEM_ID}:0.5\n"))).unwrap();
        assert_eq!(db.num_items(), MAX_ITEM_ID + 1);
        let det = read_fimi(Cursor::new(format!("{MAX_ITEM_ID}\n"))).unwrap();
        assert_eq!(det.num_items(), MAX_ITEM_ID + 1);
    }
}
