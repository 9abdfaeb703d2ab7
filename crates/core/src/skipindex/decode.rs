//! SOE-side streaming reader of the binary token stream.
//!
//! The reader is deliberately *incremental and push-fed*: the card never holds
//! more than a small window of decrypted plaintext (the terminal pushes
//! encrypted chunks one APDU at a time), and it must be able to **skip** a
//! summarised subtree by simply advancing its cursor — the skipped bytes are
//! then never requested, transferred, nor decrypted, which is precisely the
//! benefit measured in experiment E2.

use sdds_xml::{Attribute, Event, TagDict, TagId};

use super::compress::{read_varint, TagReference};
use super::encode::{token, SubtreeSummary};
use crate::error::CoreError;

/// A decoded item of the token stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenEvent {
    /// A document event (open / value / close).
    Event(Event),
    /// A subtree summary describing the content of the element that was just
    /// opened. The caller decides whether to [`TokenReader::skip`] it.
    Summary(SubtreeSummary),
}

/// Outcome of a [`TokenReader::next_token`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadResult {
    /// A token was decoded.
    Token(TokenEvent),
    /// The window does not contain a complete token; more plaintext must be
    /// supplied starting at [`TokenReader::needed_offset`].
    NeedData,
    /// The whole stream has been consumed.
    End,
}

/// Decision taken for a summarised subtree (returned by the engine's skip
/// logic and consumed by its statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipDecision {
    /// The subtree content must be read and evaluated.
    Read,
    /// The subtree cannot contribute to the authorized view: skip it.
    Skip,
}

/// Incremental reader of the binary token stream.
#[derive(Debug)]
pub struct TokenReader {
    dict: TagDict,
    recursive_bitmaps: bool,
    stream_len: u64,
    /// Absolute offset of `window[0]`.
    window_start: u64,
    /// Supplied plaintext from `window_start`; the bytes before `cursor` are
    /// consumed and only dropped when the next chunk is supplied, so decoding
    /// a token does not shift the rest of the window.
    window: Vec<u8>,
    /// Absolute offset of the next byte to decode.
    cursor: u64,
    depth: usize,
    open_names: Vec<String>,
    /// Reference tag sets of enclosing summaries: `(depth, reference)`.
    ref_stack: Vec<(usize, TagReference)>,
    /// Set when the last decoded token was an OPEN, in which case a SUMMARY
    /// may follow and would describe that element.
    last_open_depth: Option<usize>,
}

impl TokenReader {
    /// Creates a reader over a stream of `stream_len` bytes whose tokens start
    /// at `start_offset` (the bytes before it hold the serialised dictionary,
    /// already parsed by the caller).
    pub fn new(dict: TagDict, start_offset: u64, stream_len: u64, recursive_bitmaps: bool) -> Self {
        TokenReader {
            dict,
            recursive_bitmaps,
            stream_len,
            window_start: start_offset,
            window: Vec::new(),
            cursor: start_offset,
            depth: 0,
            open_names: Vec::new(),
            ref_stack: Vec::new(),
            last_open_depth: None,
        }
    }

    /// The tag dictionary.
    pub fn dict(&self) -> &TagDict {
        &self.dict
    }

    /// Absolute offset of the next byte the reader needs.
    pub fn needed_offset(&self) -> u64 {
        self.window_start + self.window.len() as u64
    }

    /// Current element depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Unconsumed bytes buffered in the reader window (charged to secure
    /// RAM).
    pub fn window_bytes(&self) -> usize {
        self.window.len() - self.rel()
    }

    /// True once every byte of the stream has been consumed or skipped.
    pub fn at_end(&self) -> bool {
        self.cursor >= self.stream_len
    }

    /// Supplies plaintext bytes starting at absolute `offset`. Bytes the reader
    /// has already consumed are ignored; a gap after the current window is an
    /// error.
    pub fn supply(&mut self, offset: u64, bytes: &[u8]) -> Result<(), CoreError> {
        // Drop the consumed prefix, once per supplied chunk.
        let consumed = self.rel();
        self.window.drain(..consumed);
        self.window_start += consumed as u64;
        let end = offset + bytes.len() as u64;
        if self.window.is_empty() {
            if end <= self.cursor {
                return Ok(()); // entirely stale (e.g. a chunk that was skipped over)
            }
            if offset > self.cursor {
                return Err(CoreError::BadState {
                    // alloc: cold — plaintext-gap error path.
                    message: format!(
                        "plaintext gap: reader needs offset {} but received {offset}",
                        self.cursor
                    ),
                });
            }
            let prefix = (self.cursor - offset) as usize;
            self.window_start = self.cursor;
            self.window.extend_from_slice(&bytes[prefix..]);
        } else {
            let window_end = self.window_start + self.window.len() as u64;
            if end <= window_end {
                return Ok(());
            }
            if offset > window_end {
                return Err(CoreError::BadState {
                    // alloc: cold — plaintext-gap error path.
                    message: format!(
                        "plaintext gap: window ends at {window_end} but received offset {offset}"
                    ),
                });
            }
            let prefix = (window_end - offset) as usize;
            self.window.extend_from_slice(&bytes[prefix..]);
        }
        Ok(())
    }

    /// Skips `content_len` bytes of subtree content (the caller obtained the
    /// length from the corresponding [`SubtreeSummary`]).
    pub fn skip(&mut self, content_len: u64) {
        self.cursor += content_len;
        let window_end = self.window_start + self.window.len() as u64;
        if self.cursor >= window_end {
            self.window.clear();
            self.window_start = self.cursor;
        }
        // A skip consumes the content of the element that was just opened; the
        // next token is its CLOSE.
        self.last_open_depth = None;
    }

    fn rel(&self) -> usize {
        (self.cursor - self.window_start) as usize
    }

    fn current_reference(&self) -> TagReference {
        self.ref_stack
            .last()
            // alloc: amortized — the recursive tag reference is a small bitmap, cloned per summary probe.
            .map(|(_, r)| r.clone())
            .unwrap_or_else(|| TagReference::full(self.dict.len()))
    }

    fn tag_name(&self, id: u64) -> Result<String, CoreError> {
        self.dict
            .name(TagId(id as u16))
            .map(str::to_owned)
            .ok_or_else(|| CoreError::BadDocument {
                // alloc: cold — unknown-tag error path.
                message: format!("unknown tag id {id}"),
            })
    }

    /// Decodes the next token, if the window holds a complete one.
    pub fn next_token(&mut self) -> Result<ReadResult, CoreError> {
        if self.at_end() {
            return Ok(ReadResult::End);
        }
        let start = self.rel();
        let Some(&marker) = self.window.get(start) else {
            return Ok(ReadResult::NeedData);
        };
        match marker {
            token::OPEN => {
                let mut pos = start + 1;
                let Some((tag, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some((attr_count, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                // alloc: amortized — attribute list sized to this one element.
                let mut attrs = Vec::with_capacity(attr_count as usize);
                for _ in 0..attr_count {
                    let Some((name_id, used)) = read_varint(&self.window, pos) else {
                        return Ok(ReadResult::NeedData);
                    };
                    pos += used;
                    let Some((value_len, used)) = read_varint(&self.window, pos) else {
                        return Ok(ReadResult::NeedData);
                    };
                    pos += used;
                    let Some(value) = self.window.get(pos..pos + value_len as usize) else {
                        return Ok(ReadResult::NeedData);
                    };
                    let value = String::from_utf8_lossy(value).into_owned();
                    pos += value_len as usize;
                    attrs.push(Attribute::new(self.tag_name(name_id)?, value));
                }
                let name = self.tag_name(tag)?;
                self.consume(pos - start);
                self.depth += 1;
                // alloc: amortized — the reader tracks one open tag name per element for well-formedness.
                self.open_names.push(name.clone());
                self.last_open_depth = Some(self.depth);
                Ok(ReadResult::Token(TokenEvent::Event(Event::Open {
                    name,
                    attrs,
                })))
            }
            token::TEXT => {
                let mut pos = start + 1;
                let Some((len, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some(text) = self.window.get(pos..pos + len as usize) else {
                    return Ok(ReadResult::NeedData);
                };
                let text = String::from_utf8_lossy(text).into_owned();
                pos += len as usize;
                self.consume(pos - start);
                self.last_open_depth = None;
                Ok(ReadResult::Token(TokenEvent::Event(Event::Text(text))))
            }
            token::CLOSE => {
                self.consume(1);
                let name = self
                    .open_names
                    .pop()
                    .ok_or_else(|| CoreError::BadDocument {
                        message: "close token without a matching open".into(),
                    })?;
                while self
                    .ref_stack
                    .last()
                    .is_some_and(|(depth, _)| *depth >= self.depth)
                {
                    self.ref_stack.pop();
                }
                self.depth -= 1;
                self.last_open_depth = None;
                Ok(ReadResult::Token(TokenEvent::Event(Event::Close(name))))
            }
            token::SUMMARY => {
                let Some(open_depth) = self.last_open_depth else {
                    return Err(CoreError::BadDocument {
                        message: "summary token not immediately after an open token".into(),
                    });
                };
                let mut pos = start + 1;
                let Some((content_len, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some((bitmap_len, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some(bitmap) = self.window.get(pos..pos + bitmap_len as usize) else {
                    return Ok(ReadResult::NeedData);
                };
                let reference = self.current_reference();
                let tags = reference.decode_subset(bitmap);
                pos += bitmap_len as usize;
                self.consume(pos - start);
                // Nested summaries are encoded against this subtree's tag set
                // (recursive compression) or the full dictionary.
                let nested_ref = if self.recursive_bitmaps {
                    TagReference::from_set(&tags)
                } else {
                    TagReference::full(self.dict.len())
                };
                self.ref_stack.push((open_depth, nested_ref));
                self.last_open_depth = None;
                Ok(ReadResult::Token(TokenEvent::Summary(SubtreeSummary {
                    content_len,
                    tags,
                })))
            }
            other => Err(CoreError::BadDocument {
                // alloc: cold — unknown-token error path.
                message: format!(
                    "unknown token marker 0x{other:02X} at offset {}",
                    self.cursor
                ),
            }),
        }
    }

    fn consume(&mut self, bytes: usize) {
        self.cursor += bytes as u64;
    }
}

/// Convenience helper: decodes a full in-memory plaintext (dictionary +
/// tokens) into events, honouring no skip. Used by tests and by the DOM
/// baseline, which by definition reads everything.
pub fn decode_all(plaintext: &[u8], recursive_bitmaps: bool) -> Result<Vec<Event>, CoreError> {
    let (dict, dict_len) = TagDict::decode(plaintext).ok_or_else(|| CoreError::BadDocument {
        message: "cannot decode the tag dictionary".into(),
    })?;
    let mut reader = TokenReader::new(
        dict,
        dict_len as u64,
        plaintext.len() as u64,
        recursive_bitmaps,
    );
    reader.supply(0, plaintext)?;
    let mut events = Vec::new();
    loop {
        match reader.next_token()? {
            ReadResult::Token(TokenEvent::Event(e)) => events.push(e),
            ReadResult::Token(TokenEvent::Summary(_)) => {}
            ReadResult::NeedData => {
                return Err(CoreError::BadDocument {
                    message: "truncated token stream".into(),
                })
            }
            ReadResult::End => break,
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skipindex::encode::{DocumentEncoder, EncoderConfig};
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
    use sdds_xml::Document;

    fn encode(doc: &Document, config: EncoderConfig) -> (Vec<u8>, TagDict) {
        let enc = DocumentEncoder::new(config).encode(doc);
        (enc.plaintext(), enc.dict)
    }

    #[test]
    fn roundtrip_small_document() {
        let doc = Document::parse("<a x=\"1\"><b>hello &amp; goodbye</b><c/></a>").unwrap();
        let (plaintext, _) = encode(&doc, EncoderConfig::default());
        let events = decode_all(&plaintext, true).unwrap();
        assert_eq!(events, doc.to_events());
    }

    #[test]
    fn roundtrip_generated_documents_with_and_without_index() {
        for config in [EncoderConfig::default(), EncoderConfig::without_index()] {
            let doc = generator::hospital(&HospitalProfile::default(), &GeneratorConfig::default());
            let (plaintext, _) = encode(&doc, config);
            let events = decode_all(&plaintext, config.recursive_bitmaps).unwrap();
            assert_eq!(events, doc.to_events());
        }
    }

    #[test]
    fn incremental_supply_in_small_pieces() {
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 3,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let enc = DocumentEncoder::new(EncoderConfig::default()).encode(&doc);
        let plaintext = enc.plaintext();
        let (dict, dict_len) = TagDict::decode(&plaintext).unwrap();
        let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);

        let mut events = Vec::new();
        let mut supplied = dict_len;
        loop {
            match reader.next_token().unwrap() {
                ReadResult::Token(TokenEvent::Event(e)) => events.push(e),
                ReadResult::Token(TokenEvent::Summary(s)) => {
                    // Text-only subtrees legitimately have an empty tag set.
                    assert!(s.content_len > 0);
                }
                ReadResult::NeedData => {
                    assert!(
                        supplied < plaintext.len(),
                        "reader starved at end of stream"
                    );
                    let next = (supplied + 33).min(plaintext.len());
                    reader
                        .supply(supplied as u64, &plaintext[supplied..next])
                        .unwrap();
                    supplied = next;
                }
                ReadResult::End => break,
            }
        }
        assert_eq!(events, doc.to_events());
        // The window never holds the whole document.
        assert!(reader.window_bytes() < plaintext.len());
    }

    #[test]
    fn skipping_a_summarised_subtree_jumps_to_its_close() {
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 4,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let enc = DocumentEncoder::new(EncoderConfig {
            min_index_bytes: 16,
            ..EncoderConfig::default()
        })
        .encode(&doc);
        let plaintext = enc.plaintext();
        let (dict, dict_len) = TagDict::decode(&plaintext).unwrap();
        let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);
        reader.supply(0, &plaintext).unwrap();

        // Skip every patient: the remaining visible elements are the root and
        // the patient tags themselves.
        let mut seen = Vec::new();
        let mut skipped_bytes = 0u64;
        loop {
            match reader.next_token().unwrap() {
                ReadResult::Token(TokenEvent::Event(e)) => {
                    if let Event::Open { name, .. } = &e {
                        seen.push(name.clone());
                    }
                }
                ReadResult::Token(TokenEvent::Summary(s)) => {
                    // Summaries for patient elements: skip them all.
                    if *seen.last().unwrap() == "patient" {
                        skipped_bytes += s.content_len;
                        reader.skip(s.content_len);
                    }
                }
                ReadResult::NeedData => panic!("whole stream was supplied"),
                ReadResult::End => break,
            }
        }
        assert_eq!(seen.iter().filter(|n| *n == "patient").count(), 4);
        assert!(!seen.contains(&"name".to_owned()));
        assert!(skipped_bytes > plaintext.len() as u64 / 2);
        assert_eq!(reader.depth(), 0);
    }

    #[test]
    fn supply_rejects_gaps_and_ignores_stale_data() {
        let doc = Document::parse("<a><b>xx</b></a>").unwrap();
        let (plaintext, dict) = encode(&doc, EncoderConfig::default());
        let dict_len = dict.encoded_len();
        let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);
        // A gap beyond the needed offset is rejected.
        assert!(reader
            .supply(plaintext.len() as u64 + 10, &[1, 2, 3])
            .is_err());
        // Stale data before the cursor is ignored.
        reader.supply(0, &plaintext[..dict_len]).unwrap();
        assert_eq!(reader.window_bytes(), 0);
        // Normal supply succeeds.
        reader.supply(0, &plaintext).unwrap();
        assert!(matches!(reader.next_token().unwrap(), ReadResult::Token(_)));
    }

    #[test]
    fn summaries_describe_descendant_tags() {
        let doc = Document::parse(
            "<r><big><x>aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</x><y>bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb</y></big></r>",
        )
        .unwrap();
        let enc = DocumentEncoder::new(EncoderConfig {
            min_index_bytes: 8,
            ..EncoderConfig::default()
        })
        .encode(&doc);
        let plaintext = enc.plaintext();
        let (dict, dict_len) = TagDict::decode(&plaintext).unwrap();
        let x_id = dict.get("x").unwrap();
        let y_id = dict.get("y").unwrap();
        let r_id = dict.get("r").unwrap();
        let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);
        reader.supply(0, &plaintext).unwrap();
        let mut summaries = Vec::new();
        loop {
            match reader.next_token().unwrap() {
                ReadResult::Token(TokenEvent::Summary(s)) => summaries.push(s),
                ReadResult::Token(_) => {}
                ReadResult::NeedData => panic!("fully supplied"),
                ReadResult::End => break,
            }
        }
        assert!(!summaries.is_empty());
        let outer = &summaries[0];
        assert!(outer.tags.contains(x_id));
        assert!(outer.tags.contains(y_id));
        assert!(!outer.tags.contains(r_id));
    }

    #[test]
    fn decode_all_rejects_truncated_stream() {
        let doc = Document::parse("<a><b>hello</b></a>").unwrap();
        let (plaintext, _) = encode(&doc, EncoderConfig::default());
        assert!(decode_all(&plaintext[..plaintext.len() - 3], true).is_err());
        assert!(decode_all(&[1, 2], true).is_err());
    }

    #[test]
    fn corrupted_marker_is_reported() {
        let doc = Document::parse("<a><b>hello</b></a>").unwrap();
        let (mut plaintext, dict) = encode(&doc, EncoderConfig::default());
        let dict_len = dict.encoded_len();
        plaintext[dict_len] = 0x7F; // clobber the first token marker
        let err = decode_all(&plaintext, true).unwrap_err();
        assert!(matches!(err, CoreError::BadDocument { .. }));
    }
}
