//! Plain-text dataset format, for experiments that replay a recorded stream.
//!
//! The paper replays recorded tweets "for repeatability of experiments"
//! (§6.2). Format, one document per line:
//!
//! ```text
//! <timestamp_ms>\t<tag1>,<tag2>,...
//! ```
//!
//! An empty tag list (untagged document) is a line with nothing after the
//! tab. Tags are stored as strings so datasets survive interner changes.

use setcorr_model::{Document, TagInterner, TagSet, Timestamp};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Serialise documents (resolving ids through `interner`).
pub fn write_dataset<'a, W: Write>(
    writer: W,
    docs: impl IntoIterator<Item = &'a Document>,
    interner: &TagInterner,
) -> io::Result<u64> {
    let mut out = BufWriter::new(writer);
    let mut n = 0u64;
    for doc in docs {
        write!(out, "{}\t", doc.timestamp.millis())?;
        for (i, t) in doc.tags.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            out.write_all(interner.name(t).as_bytes())?;
        }
        out.write_all(b"\n")?;
        n += 1;
    }
    out.flush()?;
    Ok(n)
}

/// Streaming reader: parses documents and interns tags on the fly.
pub struct DatasetReader<R: Read> {
    lines: std::io::Lines<BufReader<R>>,
    interner: TagInterner,
    next_id: u64,
    line_no: u64,
}

impl<R: Read> DatasetReader<R> {
    /// Wrap a reader.
    pub fn new(reader: R) -> Self {
        DatasetReader {
            lines: BufReader::new(reader).lines(),
            interner: TagInterner::new(),
            next_id: 0,
            line_no: 0,
        }
    }

    /// The interner accumulated while reading (tags seen so far).
    pub fn interner(&self) -> &TagInterner {
        &self.interner
    }

    fn parse(&mut self, line: &str) -> Result<Document, String> {
        let (ts, tags) = line
            .split_once('\t')
            .ok_or_else(|| format!("line {}: missing tab", self.line_no))?;
        let millis: u64 = ts
            .parse()
            .map_err(|e| format!("line {}: bad timestamp: {e}", self.line_no))?;
        let tagset = if tags.is_empty() {
            TagSet::empty()
        } else {
            TagSet::new(
                tags.split(',')
                    .filter(|t| !t.is_empty())
                    .map(|t| self.interner.intern(t))
                    .collect(),
            )
        };
        let doc = Document::new(self.next_id, Timestamp(millis), tagset);
        self.next_id += 1;
        Ok(doc)
    }
}

impl<R: Read> Iterator for DatasetReader<R> {
    type Item = Result<Document, String>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line_no += 1;
            match self.lines.next()? {
                Ok(line) => {
                    if line.is_empty() {
                        continue;
                    }
                    return Some(self.parse(&line));
                }
                Err(e) => return Some(Err(format!("line {}: io: {e}", self.line_no))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::generator::Generator;

    #[test]
    fn round_trips_generated_documents() {
        let mut generator = Generator::new(WorkloadConfig::with_seed(42));
        let docs: Vec<Document> = (&mut generator).take(200).collect();
        let mut buf: Vec<u8> = Vec::new();
        let n = write_dataset(&mut buf, docs.iter(), generator.interner()).unwrap();
        assert_eq!(n, 200);

        let reader = DatasetReader::new(buf.as_slice());
        let mut restored: Vec<Document> = Vec::new();
        let mut rd = reader;
        for item in &mut rd {
            restored.push(item.unwrap());
        }
        assert_eq!(restored.len(), 200);
        for (orig, back) in docs.iter().zip(&restored) {
            assert_eq!(orig.timestamp, back.timestamp);
            assert_eq!(orig.tags.len(), back.tags.len());
            // tag *names* must match (ids may differ across interners)
            let orig_names: Vec<&str> = orig
                .tags
                .iter()
                .map(|t| generator.interner().name(t))
                .collect();
            let back_names: Vec<&str> = back.tags.iter().map(|t| rd.interner().name(t)).collect();
            let mut a = orig_names.clone();
            let mut b = back_names.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn untagged_documents_round_trip() {
        let text = "0\t\n5\t#a,#b\n";
        let mut reader = DatasetReader::new(text.as_bytes());
        let d0 = reader.next().unwrap().unwrap();
        assert!(d0.tags.is_empty());
        let d1 = reader.next().unwrap().unwrap();
        assert_eq!(d1.tags.len(), 2);
        assert!(reader.next().is_none());
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let text = "not-a-number\t#a\n";
        let mut reader = DatasetReader::new(text.as_bytes());
        let err = reader.next().unwrap().unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let text = "12 #a\n";
        let mut reader = DatasetReader::new(text.as_bytes());
        let err = reader.next().unwrap().unwrap_err();
        assert!(err.contains("missing tab"), "{err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "\n\n7\t#x\n\n";
        let reader = DatasetReader::new(text.as_bytes());
        let docs: Vec<_> = reader.map(|d| d.unwrap()).collect();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].timestamp, Timestamp(7));
    }
}
