//! Timing instrumentation for the experiments.
//!
//! The thesis timed `getPR` at two layers (§6.4): the Virtualization Layer
//! (total query time, measured at the client) and the Mapping Layer (the
//! local data-store query). Overhead = total − mapping. [`TimingLog`] is the
//! shared sample sink; the [`timed`] wrapper decorates an
//! [`ExecutionWrapper`] so every Mapping Layer call is recorded without the
//! wrapper knowing.

use crate::wrapper::{ApplicationWrapper, ExecutionWrapper, PrQuery, WrapperError};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A thread-safe log of duration samples plus a byte counter.
#[derive(Default)]
pub struct TimingLog {
    samples: Mutex<Vec<Duration>>,
    bytes: Mutex<Vec<usize>>,
}

impl TimingLog {
    /// An empty log.
    pub fn new() -> Arc<TimingLog> {
        Arc::new(TimingLog::default())
    }

    /// Record one duration sample.
    pub fn record(&self, d: Duration) {
        self.samples.lock().push(d);
    }

    /// Record a payload size in bytes.
    pub fn record_bytes(&self, n: usize) {
        self.bytes.lock().push(n);
    }

    /// All samples so far.
    pub fn samples(&self) -> Vec<Duration> {
        self.samples.lock().clone()
    }

    /// All byte samples so far.
    pub fn byte_samples(&self) -> Vec<usize> {
        self.bytes.lock().clone()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clear all samples.
    pub fn clear(&self) {
        self.samples.lock().clear();
        self.bytes.lock().clear();
    }

    /// Mean sample in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        let samples = self.samples.lock();
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>() / samples.len() as f64
    }

    /// Mean payload bytes.
    pub fn mean_bytes(&self) -> f64 {
        let bytes = self.bytes.lock();
        if bytes.is_empty() {
            return 0.0;
        }
        bytes.iter().sum::<usize>() as f64 / bytes.len() as f64
    }
}

/// An [`ExecutionWrapper`] decorator that records the elapsed time and
/// result payload size of every Mapping Layer call (`get_pr`, `get_pr_batch`
/// and `get_pr_stream`) into a [`TimingLog`].
pub struct TimedExecutionWrapper {
    inner: Arc<dyn ExecutionWrapper>,
    log: Arc<TimingLog>,
}

impl TimedExecutionWrapper {
    /// Wrap `inner`, logging to `log`.
    pub fn new(inner: Arc<dyn ExecutionWrapper>, log: Arc<TimingLog>) -> TimedExecutionWrapper {
        TimedExecutionWrapper { inner, log }
    }
}

/// Convenience constructor mirroring the decorator pattern used at call
/// sites: `timed(wrapper, log)`.
pub fn timed(inner: Arc<dyn ExecutionWrapper>, log: Arc<TimingLog>) -> Arc<dyn ExecutionWrapper> {
    Arc::new(TimedExecutionWrapper::new(inner, log))
}

impl ExecutionWrapper for TimedExecutionWrapper {
    fn info(&self) -> Vec<(String, String)> {
        self.inner.info()
    }

    fn foci(&self) -> Vec<String> {
        self.inner.foci()
    }

    fn metrics(&self) -> Vec<String> {
        self.inner.metrics()
    }

    fn types(&self) -> Vec<String> {
        self.inner.types()
    }

    fn time_start_end(&self) -> (String, String) {
        self.inner.time_start_end()
    }

    fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
        let start = Instant::now();
        let result = self.inner.get_pr(query);
        self.log.record(start.elapsed());
        if let Ok(rows) = &result {
            self.log.record_bytes(rows.iter().map(String::len).sum());
        }
        result
    }

    fn get_pr_batch(&self, queries: &[PrQuery]) -> Vec<Result<Vec<String>, WrapperError>> {
        // Forward to the inner wrapper (it may collapse the group into one
        // scan); one duration sample covers the whole Mapping Layer call.
        let start = Instant::now();
        let results = self.inner.get_pr_batch(queries);
        self.log.record(start.elapsed());
        for rows in results.iter().flatten() {
            self.log.record_bytes(rows.iter().map(String::len).sum());
        }
        results
    }

    fn get_pr_stream(
        &self,
        query: &PrQuery,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), WrapperError>,
    ) -> Result<u64, WrapperError> {
        // Forward so a natively streaming wrapper keeps its constant-memory
        // scan. Time parked in the sink is the transport draining, not the
        // data store working, so the one sample excludes it.
        let start = Instant::now();
        let mut in_sink = Duration::ZERO;
        let mut bytes = 0usize;
        let mut timed_sink = |rows: Vec<String>| {
            bytes += rows.iter().map(String::len).sum::<usize>();
            let entered = Instant::now();
            let result = sink(rows);
            in_sink += entered.elapsed();
            result
        };
        let result = self.inner.get_pr_stream(query, &mut timed_sink);
        self.log.record(start.elapsed().saturating_sub(in_sink));
        if result.is_ok() {
            self.log.record_bytes(bytes);
        }
        result
    }
}

/// An [`ApplicationWrapper`] decorator whose executions are all
/// [`TimedExecutionWrapper`]s sharing one log — deploy a site over this to
/// measure the Mapping Layer half of the Table 4 overhead experiment.
pub struct TimedApplicationWrapper {
    inner: Arc<dyn ApplicationWrapper>,
    log: Arc<TimingLog>,
}

impl TimedApplicationWrapper {
    /// Wrap `inner`, logging every execution's `get_pr` to `log`.
    pub fn new(inner: Arc<dyn ApplicationWrapper>, log: Arc<TimingLog>) -> TimedApplicationWrapper {
        TimedApplicationWrapper { inner, log }
    }
}

impl ApplicationWrapper for TimedApplicationWrapper {
    fn app_info(&self) -> Vec<(String, String)> {
        self.inner.app_info()
    }

    fn num_execs(&self) -> usize {
        self.inner.num_execs()
    }

    fn exec_query_params(&self) -> Vec<(String, Vec<String>)> {
        self.inner.exec_query_params()
    }

    fn all_exec_ids(&self) -> Vec<String> {
        self.inner.all_exec_ids()
    }

    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError> {
        self.inner.exec_ids_matching(attribute, value)
    }

    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        let exec = self.inner.execution(exec_id)?;
        Ok(timed(exec, Arc::clone(&self.log)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeExec;

    impl ExecutionWrapper for FakeExec {
        fn info(&self) -> Vec<(String, String)> {
            vec![]
        }
        fn foci(&self) -> Vec<String> {
            vec![]
        }
        fn metrics(&self) -> Vec<String> {
            vec![]
        }
        fn types(&self) -> Vec<String> {
            vec![]
        }
        fn time_start_end(&self) -> (String, String) {
            ("0".into(), "1".into())
        }
        fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
            if query.metric == "fail" {
                return Err(WrapperError("nope".into()));
            }
            std::thread::sleep(Duration::from_millis(5));
            Ok(vec!["12345678".into()])
        }
    }

    fn query(metric: &str) -> PrQuery {
        PrQuery {
            metric: metric.into(),
            foci: vec![],
            start: "0".into(),
            end: "1".into(),
            rtype: "UNDEFINED".into(),
        }
    }

    #[test]
    fn records_duration_and_bytes() {
        let log = TimingLog::new();
        let wrapped = timed(Arc::new(FakeExec), Arc::clone(&log));
        wrapped.get_pr(&query("ok")).unwrap();
        wrapped.get_pr(&query("ok")).unwrap();
        assert_eq!(log.len(), 2);
        assert!(log.mean_ms() >= 4.0, "mean {} ms", log.mean_ms());
        assert_eq!(log.mean_bytes(), 8.0);
    }

    #[test]
    fn failures_record_time_but_not_bytes() {
        let log = TimingLog::new();
        let wrapped = timed(Arc::new(FakeExec), Arc::clone(&log));
        assert!(wrapped.get_pr(&query("fail")).is_err());
        assert_eq!(log.len(), 1);
        assert!(log.byte_samples().is_empty());
    }

    /// Streams its rows one per sink call, like a wrapper driving a cursor.
    struct StreamingExec(usize);

    impl ExecutionWrapper for StreamingExec {
        fn info(&self) -> Vec<(String, String)> {
            vec![]
        }
        fn foci(&self) -> Vec<String> {
            vec![]
        }
        fn metrics(&self) -> Vec<String> {
            vec![]
        }
        fn types(&self) -> Vec<String> {
            vec![]
        }
        fn time_start_end(&self) -> (String, String) {
            ("0".into(), "1".into())
        }
        fn get_pr(&self, _query: &PrQuery) -> Result<Vec<String>, WrapperError> {
            Ok(vec!["row".into(); self.0])
        }
        fn get_pr_stream(
            &self,
            _query: &PrQuery,
            sink: &mut dyn FnMut(Vec<String>) -> Result<(), WrapperError>,
        ) -> Result<u64, WrapperError> {
            for _ in 0..self.0 {
                sink(vec!["row".into()])?;
            }
            Ok(self.0 as u64)
        }
    }

    #[test]
    fn stream_is_forwarded_with_one_sample() {
        let log = TimingLog::new();
        let wrapped = timed(Arc::new(StreamingExec(5)), Arc::clone(&log));
        let mut calls = 0usize;
        let total = wrapped
            .get_pr_stream(&query("ok"), &mut |rows| {
                assert_eq!(rows.len(), 1);
                calls += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(total, 5);
        assert_eq!(
            calls, 5,
            "the inner wrapper's native stream reaches the sink"
        );
        assert_eq!(log.len(), 1, "one Mapping Layer call, one sample");
        assert_eq!(log.byte_samples(), vec![15]);
    }

    #[test]
    fn clear_resets() {
        let log = TimingLog::new();
        log.record(Duration::from_millis(1));
        log.record_bytes(10);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.mean_ms(), 0.0);
        assert_eq!(log.mean_bytes(), 0.0);
    }
}
