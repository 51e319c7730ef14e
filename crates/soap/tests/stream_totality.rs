//! Decoder totality: whatever bytes arrive — noise, a valid input with
//! flipped bits, or one cut short — the PPGB batch-stream reader, the
//! notification-event decoder (kind 4, bytes off push connections), the
//! cached-segment decoder (kind 5, spill files read back from disk) and the
//! XML-fallback event decoder never panic, report only typed errors, and
//! never allocate from a length they read off the wire without checking it
//! against the bytes that actually arrived.

use pperf_soap::{
    decode_binary_event, decode_binary_segment, encode_batch_stream_head, encode_binary_event,
    encode_binary_segment, encode_entry_fault, encode_entry_head, BatchStreamReader, Fault,
    FrameWriter, WireError, WireEvent, WireSegment, PPGB_MAGIC, PPGB_VERSION,
};
use ppg_notify::{decode_xml_event, encode_xml_event, NotifyError};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single allocation the current thread makes while
/// armed, so a decode that sizes a buffer from an unchecked length shows up
/// as an allocation far beyond the input it was given.
struct LargestAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: thread-local storage may already be gone while a thread
    // tears down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged; `note`
// only reads and writes const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// How one decode ended.
struct Decoded {
    /// Every declared entry sealed.
    finished: bool,
    /// Decoding stopped on a typed error.
    failed: bool,
    /// Largest single allocation made while decoding.
    largest_alloc: usize,
}

/// Run `f` and report the largest single allocation it made on this thread.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, LARGEST.with(Cell::get))
}

/// Feed `bytes` in `chunk`-sized pieces, draining events after each, until
/// the reader wants more bytes, finishes, or fails.
fn decode(bytes: &[u8], chunk: usize) -> Decoded {
    let ((finished, failed), largest_alloc) = measured(|| feed(bytes, chunk));
    Decoded {
        finished,
        failed,
        largest_alloc,
    }
}

/// The body of [`decode`]: `(finished, failed)`.
fn feed(bytes: &[u8], chunk: usize) -> (bool, bool) {
    let mut reader = BatchStreamReader::new();
    let mut failed = false;
    'feed: for piece in bytes.chunks(chunk.max(1)) {
        reader.feed(piece);
        loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(WireError::Fault(_)) => {
                    failed = true;
                    break 'feed;
                }
                Err(e) => {
                    assert!(e.is_corrupt(), "untyped failure {e:?}");
                    failed = true;
                    break 'feed;
                }
            }
        }
    }
    // The accessors stay total on whatever state decoding left behind.
    let _ = reader.unsealed_entries().take(64).count();
    let _ = (
        reader.declared_entries(),
        reader.buffered(),
        reader.entry_rows_seen(0),
        reader.entry_trace(0).len(),
    );
    (reader.finished(), failed)
}

/// The allocation ceiling for decoding `input_len` bytes: linear in what
/// arrived (buffer growth, decoded rows, one section per entry frame),
/// never proportional to a declared count or length.
fn alloc_ceiling(input_len: usize) -> usize {
    16 * input_len + 4096
}

/// A valid interleaved batch stream: `entries` sections of `rows` rows each
/// (spanned rows ride columnar blocks, the rest raw), cut into frames of
/// about `frame_bytes`, entries whose bit is set in `faulted` sealed by an
/// entry fault instead, and the sections interleaved frame by frame the way
/// parallel producers yield them.
fn valid_stream(entries: usize, rows: usize, frame_bytes: usize, faulted: u8) -> Vec<u8> {
    let sections: Vec<Vec<Vec<u8>>> = (0..entries)
        .map(|e| {
            let index = e as u32;
            let mut frames = vec![encode_entry_head(index)];
            if faulted & (1 << e) != 0 {
                frames.push(encode_entry_fault(index, &Fault::server("entry failed")));
                return frames;
            }
            let mut writer = FrameWriter::for_entry(frame_bytes, index);
            for r in 0..rows {
                let row = if r % 5 == 4 {
                    format!("raw row {e}.{r}")
                } else {
                    format!("gflops|t={r}:{}|e{e}", r + 1)
                };
                frames.extend(writer.push(row));
            }
            frames.extend(writer.finish());
            frames
        })
        .collect();
    let mut wire = encode_batch_stream_head(entries as u32);
    let longest = sections.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..longest {
        for section in &sections {
            if let Some(frame) = section.get(round) {
                wire.extend_from_slice(frame);
            }
        }
    }
    wire
}

proptest! {
    #[test]
    fn batch_stream_reader_is_total_over_noise(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
        headed in any::<bool>(),
        declared in any::<u32>(),
        chunk in 1usize..64,
    ) {
        // Half the cases open with a well-formed head declaring an
        // arbitrary entry count, so the noise reaches the entry decoder.
        let mut bytes = if headed {
            encode_batch_stream_head(declared)
        } else {
            Vec::new()
        };
        bytes.extend_from_slice(&noise);
        let decoded = decode(&bytes, chunk);
        prop_assert!(
            decoded.largest_alloc <= alloc_ceiling(bytes.len()),
            "allocated {} B decoding {} B",
            decoded.largest_alloc,
            bytes.len()
        );
    }

    #[test]
    fn batch_stream_reader_is_total_over_bit_flips(
        shape in (1usize..4, 0usize..40, 16usize..400, any::<u8>()),
        flips in proptest::collection::vec((any::<u64>(), 0u8..8), 1..4),
        chunk in 1usize..128,
    ) {
        let (entries, rows, frame_bytes, faulted) = shape;
        let mut bytes = valid_stream(entries, rows, frame_bytes, faulted);
        let intact = decode(&bytes, chunk);
        prop_assert!(intact.finished && !intact.failed, "the unflipped stream must decode");
        for (at, bit) in &flips {
            let i = (*at % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << bit;
        }
        // A flip may still decode (a byte of fault text, say); what it must
        // never do is panic, fail untyped, or allocate wild.
        let decoded = decode(&bytes, chunk);
        prop_assert!(
            decoded.largest_alloc <= alloc_ceiling(bytes.len()),
            "allocated {} B decoding {} B",
            decoded.largest_alloc,
            bytes.len()
        );
    }

    #[test]
    fn batch_stream_reader_is_total_over_truncation(
        shape in (1usize..4, 0usize..40, 16usize..400, any::<u8>()),
        cut in any::<u64>(),
        chunk in 1usize..128,
    ) {
        let (entries, rows, frame_bytes, faulted) = shape;
        let bytes = valid_stream(entries, rows, frame_bytes, faulted);
        let cut = (cut % bytes.len() as u64) as usize;
        // A stream cut short is partial, not corrupt: the reader waits for
        // bytes that never come, and never claims to have finished.
        let decoded = decode(&bytes[..cut], chunk);
        prop_assert!(!decoded.failed, "a clean prefix must not fail");
        prop_assert!(!decoded.finished, "a prefix cut at {cut} of {} finished", bytes.len());
        prop_assert!(
            decoded.largest_alloc <= alloc_ceiling(cut),
            "allocated {} B decoding {} B",
            decoded.largest_alloc,
            cut
        );
    }
}

/// The single-frame decoders: each decodes one whole buffer.
#[derive(Debug, Clone, Copy)]
enum FrameKind {
    /// PPGB kind 4, a push notification event.
    Event,
    /// PPGB kind 5, a spilled cache segment.
    Segment,
    /// The XML-fallback notification event.
    XmlEvent,
}

const FRAME_KINDS: [FrameKind; 3] = [FrameKind::Event, FrameKind::Segment, FrameKind::XmlEvent];

/// Decode `bytes` with `kind`'s decoder: whether it decoded, and the
/// largest single allocation it made. Every failure must be a typed error.
fn decode_frame(kind: FrameKind, bytes: &[u8]) -> (bool, usize) {
    measured(|| match kind {
        FrameKind::Event => decode_binary_event(bytes).is_ok(),
        FrameKind::Segment => decode_binary_segment(bytes).is_ok(),
        // The push sink hands the decoder each chunk as lossy UTF-8.
        FrameKind::XmlEvent => match decode_xml_event(&String::from_utf8_lossy(bytes)) {
            Ok(_) => true,
            Err(NotifyError::Protocol(_)) => false,
            Err(e) => panic!("untyped failure {e:?}"),
        },
    })
}

/// The opening bytes of a well-formed input of `kind`, so noise after them
/// reaches the decoder's body instead of failing on the magic.
fn frame_head(kind: FrameKind) -> Vec<u8> {
    let frame_kind = match kind {
        FrameKind::Event => 4,
        FrameKind::Segment => 5,
        FrameKind::XmlEvent => return b"<event topic=\"t\" seq=\"1\">".to_vec(),
    };
    let mut head = PPGB_MAGIC.to_vec();
    head.extend_from_slice(&[PPGB_VERSION, frame_kind, 0, 0]);
    head
}

/// A valid input of `kind`: an event carrying `text`, or a cached segment
/// of `rows` rows (spanned rows ride a columnar block, the rest raw).
fn valid_frame(kind: FrameKind, text: &str, seq: u64, rows: usize) -> Vec<u8> {
    let event = WireEvent {
        topic: format!("topic.{}", seq % 7),
        seq,
        payload: text.to_owned(),
    };
    match kind {
        FrameKind::Event => encode_binary_event(&event),
        FrameKind::XmlEvent => encode_xml_event(&event).into_bytes(),
        FrameKind::Segment => {
            let spanned = seq.is_multiple_of(2);
            encode_binary_segment(&WireSegment {
                series: format!("http://h/e::{text}"),
                start: 0.0,
                end: rows as f64,
                filterable: spanned,
                inserted_unix_ms: seq,
                rows: (0..rows)
                    .map(|r| {
                        if spanned {
                            format!("gflops|t={r}:{}|{text}", r + 1)
                        } else {
                            format!("raw row {r} {text}")
                        }
                    })
                    .collect(),
            })
        }
    }
}

proptest! {
    #[test]
    fn frame_decoders_are_total_over_noise(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
        headed in any::<bool>(),
    ) {
        for kind in FRAME_KINDS {
            let mut bytes = if headed { frame_head(kind) } else { Vec::new() };
            bytes.extend_from_slice(&noise);
            let (_, largest) = decode_frame(kind, &bytes);
            prop_assert!(
                largest <= alloc_ceiling(bytes.len()),
                "{kind:?}: allocated {largest} B decoding {} B",
                bytes.len()
            );
        }
    }

    #[test]
    fn frame_decoders_are_total_over_bit_flips(
        text in "\\PC{0,40}",
        seq in any::<u64>(),
        rows in 0usize..40,
        flips in proptest::collection::vec((any::<u64>(), 0u8..8), 1..4),
    ) {
        for kind in FRAME_KINDS {
            let mut bytes = valid_frame(kind, &text, seq, rows);
            prop_assert!(decode_frame(kind, &bytes).0, "{kind:?}: the unflipped input must decode");
            for (at, bit) in &flips {
                let i = (*at % bytes.len() as u64) as usize;
                bytes[i] ^= 1 << bit;
            }
            // A flip may still decode (a byte of payload text, say); what
            // it must never do is panic, fail untyped, or allocate wild.
            let (_, largest) = decode_frame(kind, &bytes);
            prop_assert!(
                largest <= alloc_ceiling(bytes.len()),
                "{kind:?}: allocated {largest} B decoding {} B",
                bytes.len()
            );
        }
    }

    #[test]
    fn frame_decoders_are_total_over_truncation(
        text in "\\PC{0,40}",
        seq in any::<u64>(),
        rows in 0usize..40,
        cut in any::<u64>(),
    ) {
        for kind in FRAME_KINDS {
            let bytes = valid_frame(kind, &text, seq, rows);
            let cut = (cut % bytes.len() as u64) as usize;
            // A frame cut short never decodes: every length and the closing
            // tag are checked against the bytes that arrived.
            let (decoded, largest) = decode_frame(kind, &bytes[..cut]);
            prop_assert!(!decoded, "{kind:?}: a prefix cut at {cut} of {} decoded", bytes.len());
            prop_assert!(
                largest <= alloc_ceiling(cut),
                "{kind:?}: allocated {largest} B decoding {cut} B"
            );
        }
    }
}
