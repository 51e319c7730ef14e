//! Microcalls the traced run makes into single layers through their public
//! APIs, fed with the workload's own rows: the PPGB frame codec, the SOAP
//! `getPR` response envelope, the segment cache, and a bare httpd round
//! trip. Each call is recorded as a span under one root span per microcall.

use crate::trace::{Recorder, Span};
use crate::workload::{self, Data, Query};
use pperf_gateway::{series_key, Lookup, SegmentCache};
use pperf_httpd::HttpClient;
use pperf_soap::{
    decode_response, encode_batch_stream_head, encode_entry_head, encode_response,
    BatchStreamEvent, BatchStreamReader, FrameWriter, Value, DEFAULT_STREAM_FRAME_BYTES,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each microcall repeats for at least this long (and at least
/// [`MIN_REPS`] times) and reports its median call.
const MICRO_BUDGET: Duration = Duration::from_millis(300);
const MIN_REPS: usize = 5;

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Record the root span of one microcall, labelled through its request id.
fn close_root(rec: &Recorder, id: u64, label: &str, start_ns: u64) {
    rec.push(Span {
        id,
        parent: None,
        name: "micro",
        site: "",
        request_id: label.to_owned(),
        start_ns,
        end_ns: rec.now_ns(),
        sink_ns: 0,
    });
}

/// Repeat `call` under a root span named `name`, one child span per call;
/// returns the median call time in ns.
fn repeat(rec: &Recorder, name: &'static str, mut call: impl FnMut(usize)) -> f64 {
    let root_start = rec.now_ns();
    let root = rec.next_id();
    let mut times = Vec::new();
    let begun = Instant::now();
    let mut i = 0;
    while times.len() < MIN_REPS || begun.elapsed() < MICRO_BUDGET {
        let start = rec.now_ns();
        call(i);
        times.push((rec.now_ns() - start) as f64);
        rec.record(name, Some(root), "", start);
        i += 1;
    }
    close_root(rec, root, name, root_start);
    median(&mut times)
}

/// Encode the rows as one batch-stream entry section: head, entry head,
/// data frames and the trailer.
fn encode_section(rows: &[String]) -> Vec<Vec<u8>> {
    let mut frames = vec![encode_batch_stream_head(1), encode_entry_head(0)];
    let mut writer = FrameWriter::for_entry(DEFAULT_STREAM_FRAME_BYTES, 0);
    for row in rows {
        if let Some(frame) = writer.push(row.clone()) {
            frames.push(frame);
        }
    }
    frames.extend(writer.finish());
    frames
}

/// Decode a batch stream; returns the rows it carried.
fn decode_section(frames: &[Vec<u8>]) -> usize {
    let mut reader = BatchStreamReader::new();
    let mut rows = 0;
    for frame in frames {
        reader.feed(frame);
        while let Ok(Some(event)) = reader.next_event() {
            if let BatchStreamEvent::EntryRows { rows: r, .. } = event {
                rows += r.len();
            }
        }
    }
    rows
}

/// `(encode ns/row, decode ns/row, bytes/row)` of the PPGB stream codec
/// over all the rows of one full query.
pub fn frame_codec(rec: &Recorder, rows: &[String]) -> Result<(f64, f64, f64), String> {
    let frames = encode_section(rows);
    let bytes: usize = frames.iter().map(Vec::len).sum();
    if decode_section(&frames) != rows.len() {
        return Err("frame codec round trip lost rows".into());
    }
    let n = rows.len().max(1) as f64;
    let encode = repeat(rec, "soap.frame_encode", |_| {
        black_box(encode_section(black_box(rows)));
    });
    let decode = repeat(rec, "soap.frame_decode", |_| {
        black_box(decode_section(black_box(&frames)));
    });
    Ok((encode / n, decode / n, bytes as f64 / n))
}

/// µs to encode and parse one `getPR` response envelope, cycling through
/// the per-execution row sets.
pub fn envelope(rec: &Recorder, row_sets: &[Vec<String>]) -> Result<f64, String> {
    for rows in row_sets {
        let text = encode_response("getPR", &Value::StrArray(rows.clone()));
        match decode_response(&text).map_err(|e| e.to_string())? {
            Value::StrArray(back) if &back == rows => {}
            other => return Err(format!("envelope round trip changed the rows: {other:?}")),
        }
    }
    let ns = repeat(rec, "soap.envelope", |i| {
        let rows = &row_sets[i % row_sets.len()];
        let text = encode_response("getPR", &Value::StrArray(black_box(rows).clone()));
        black_box(decode_response(&text).ok());
    });
    Ok(ns / 1e3)
}

/// Median µs of `GET /ogsa/services`, the smallest message a container
/// serves, over a fresh keep-alive client.
pub fn bare_rtt(rec: &Recorder, base_url: &str) -> Result<f64, String> {
    let client = HttpClient::new();
    let url = format!("{base_url}/ogsa/services");
    client.get(&url).map_err(|e| format!("GET {url}: {e}"))?;
    let mut failed = None;
    let ns = repeat(rec, "httpd.bare_rtt", |_| {
        if let Err(e) = client.get(&url) {
            failed = Some(e.to_string());
        }
    });
    match failed {
        Some(e) => Err(format!("GET {url}: {e}")),
        None => Ok(ns / 1e3),
    }
}

/// `(lookup µs, insert µs)`: the workload's window sequence replayed on a
/// standalone segment cache with the gateway's budget, one series per
/// execution, inserting fetched rows on misses and partial hits just as the
/// gateway does.
pub fn segment_cache(rec: &Recorder, data: &Data, budget: usize) -> Result<(f64, f64), String> {
    let cache = SegmentCache::new(workload::standalone_cache_config(budget));
    let site = data.sites.first().ok_or("workload without sites")?;
    let mut execs = Vec::new();
    for id in site.wrapper.all_exec_ids() {
        let exec = site.wrapper.execution(&id).map_err(|e| e.to_string())?;
        execs.push((id, exec));
    }
    let mut lookups = Vec::new();
    let mut inserts = Vec::new();
    let root_start = rec.now_ns();
    let root = rec.next_id();
    let begun = Instant::now();
    let mut i = 0usize;
    while lookups.len() < MIN_REPS || begun.elapsed() < MICRO_BUDGET {
        let Query::Federated(fq) = &data.queries[i % data.queries.len()] else {
            return Err("segment-cache replay needs federated queries".into());
        };
        let pr = fq.pr_query();
        let window = pr.time_window().map_err(|e| e.to_string())?;
        for (id, exec) in &execs {
            let series = series_key(id, &pr.metric, &pr.foci, &pr.rtype);
            let start = rec.now_ns();
            let outcome = cache.lookup(&series, window);
            lookups.push((rec.now_ns() - start) as f64);
            rec.record("gateway.cache.lookup", Some(root), "", start);
            let fill = match outcome {
                Lookup::Hit { .. } => None,
                Lookup::Partial { missing, .. } => Some(missing),
                Lookup::Miss => Some(window),
            };
            if let Some((a, b)) = fill {
                let mut narrowed = pr.clone();
                narrowed.start = a.to_string();
                narrowed.end = b.to_string();
                let rows = exec.get_pr(&narrowed).map_err(|e| e.to_string())?;
                let start = rec.now_ns();
                cache.insert(&series, (a, b), std::sync::Arc::new(rows));
                inserts.push((rec.now_ns() - start) as f64);
                rec.record("gateway.cache.insert", Some(root), "", start);
            }
        }
        i += 1;
    }
    close_root(rec, root, "gateway.cache", root_start);
    Ok((median(&mut lookups) / 1e3, median(&mut inserts) / 1e3))
}
