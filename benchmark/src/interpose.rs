//! Storage-seam decorators for the traced swap-churn run.
//!
//! `CoiWorld::boot` and `Dedup::new` both take a public
//! `Arc<dyn SnapshotStorage>`; wrapping those two arguments puts a span
//! around every call that crosses coi → snapstore and snapstore →
//! snapify-io without editing the program. Every trait method is
//! forwarded — including the defaulted `begin_record`,
//! `write_cached_record`, `mark_boundary` and `set_write_granularity`:
//! dropping one silently disables incremental capture.

use std::sync::Arc;

use phi_platform::{NodeId, Payload};
use simproc::{ByteSink, ByteSource, IoError, SnapshotStorage};

use crate::spans;

/// Span names of one seam.
pub struct Seam {
    open_sink: &'static str,
    open_source: &'static str,
    sink: &'static str,
    source: &'static str,
}

/// The coi → snapstore seam: time inside is snapstore's, minus the
/// snapify-io spans nested under it on the same thread.
pub const SNAPSTORE: Seam = Seam {
    open_sink: "snapstore.open_sink",
    open_source: "snapstore.open_source",
    sink: "snapstore.sink",
    source: "snapstore.source",
};

/// The snapstore → snapify-io seam.
pub const SNAPIFY_IO: Seam = Seam {
    open_sink: "snapify-io.open_sink",
    open_source: "snapify-io.open_source",
    sink: "snapify-io.sink",
    source: "snapify-io.source",
};

/// A `SnapshotStorage` that records a span around every call into the
/// storage it wraps.
pub struct Interposed {
    inner: Arc<dyn SnapshotStorage>,
    seam: &'static Seam,
}

impl Interposed {
    /// Wrap `inner` at `seam`.
    pub fn wrap(inner: Arc<dyn SnapshotStorage>, seam: &'static Seam) -> Arc<dyn SnapshotStorage> {
        Arc::new(Interposed { inner, seam })
    }
}

impl SnapshotStorage for Interposed {
    fn sink(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSink>, IoError> {
        let _span = spans::interposer(self.seam.open_sink);
        Ok(Box::new(SpanSink {
            inner: self.inner.sink(local, path)?,
            name: self.seam.sink,
        }))
    }

    fn source(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSource>, IoError> {
        let _span = spans::interposer(self.seam.open_source);
        Ok(Box::new(SpanSource {
            inner: self.inner.source(local, path)?,
            name: self.seam.source,
        }))
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

struct SpanSink {
    inner: Box<dyn ByteSink>,
    name: &'static str,
}

impl ByteSink for SpanSink {
    fn write(&mut self, data: Payload) -> Result<(), IoError> {
        let _span = spans::interposer(self.name);
        self.inner.write(data)
    }

    fn close(&mut self) -> Result<(), IoError> {
        let _span = spans::interposer(self.name);
        self.inner.close()
    }

    fn set_write_granularity(&mut self, granularity: Option<u64>) {
        let _span = spans::interposer(self.name);
        self.inner.set_write_granularity(granularity)
    }

    fn mark_boundary(&mut self) {
        let _span = spans::interposer(self.name);
        self.inner.mark_boundary()
    }

    fn begin_record(&mut self, name: &str, digest: u64, len: u64) {
        let _span = spans::interposer(self.name);
        self.inner.begin_record(name, digest, len)
    }

    fn write_cached_record(&mut self, name: &str, digest: u64, len: u64) -> Result<bool, IoError> {
        let _span = spans::interposer(self.name);
        self.inner.write_cached_record(name, digest, len)
    }
}

struct SpanSource {
    inner: Box<dyn ByteSource>,
    name: &'static str,
}

impl ByteSource for SpanSource {
    fn read(&mut self, max: u64) -> Result<Option<Payload>, IoError> {
        let _span = spans::interposer(self.name);
        self.inner.read(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A storage whose sink and source log every method called on them.
    #[derive(Default)]
    struct Logging(Arc<Mutex<Vec<String>>>);

    struct LogSink(Arc<Mutex<Vec<String>>>);

    impl ByteSink for LogSink {
        fn write(&mut self, data: Payload) -> Result<(), IoError> {
            self.0.lock().unwrap().push(format!("write {}", data.len()));
            Ok(())
        }
        fn close(&mut self) -> Result<(), IoError> {
            self.0.lock().unwrap().push("close".into());
            Ok(())
        }
        fn set_write_granularity(&mut self, granularity: Option<u64>) {
            self.0
                .lock()
                .unwrap()
                .push(format!("granularity {granularity:?}"));
        }
        fn mark_boundary(&mut self) {
            self.0.lock().unwrap().push("boundary".into());
        }
        fn begin_record(&mut self, name: &str, digest: u64, len: u64) {
            self.0
                .lock()
                .unwrap()
                .push(format!("begin {name} {digest} {len}"));
        }
        fn write_cached_record(
            &mut self,
            name: &str,
            digest: u64,
            len: u64,
        ) -> Result<bool, IoError> {
            self.0
                .lock()
                .unwrap()
                .push(format!("cached {name} {digest} {len}"));
            Ok(true)
        }
    }

    struct LogSource(Arc<Mutex<Vec<String>>>);

    impl ByteSource for LogSource {
        fn read(&mut self, max: u64) -> Result<Option<Payload>, IoError> {
            self.0.lock().unwrap().push(format!("read {max}"));
            Ok(None)
        }
    }

    impl SnapshotStorage for Logging {
        fn sink(&self, _: NodeId, path: &str) -> Result<Box<dyn ByteSink>, IoError> {
            self.0.lock().unwrap().push(format!("sink {path}"));
            Ok(Box::new(LogSink(Arc::clone(&self.0))))
        }
        fn source(&self, _: NodeId, path: &str) -> Result<Box<dyn ByteSource>, IoError> {
            self.0.lock().unwrap().push(format!("source {path}"));
            Ok(Box::new(LogSource(Arc::clone(&self.0))))
        }
        fn label(&self) -> &'static str {
            "logging"
        }
    }

    #[test]
    fn every_trait_method_reaches_the_wrapped_storage() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let storage = Interposed::wrap(Arc::new(Logging(Arc::clone(&log))), &SNAPSTORE);
        assert_eq!(storage.label(), "logging");

        let mut sink = storage.sink(NodeId::HOST, "/p").unwrap();
        sink.set_write_granularity(Some(4096));
        sink.begin_record("r", 7, 9);
        sink.write(Payload::synthetic(1, 9)).unwrap();
        sink.mark_boundary();
        // The defaulted method answers `false`; only a forwarded call
        // can return the wrapped sink's `true`.
        assert!(sink.write_cached_record("r", 7, 9).unwrap());
        sink.close().unwrap();
        let mut source = storage.source(NodeId::HOST, "/p").unwrap();
        assert!(source.read(64).unwrap().is_none());

        assert_eq!(
            *log.lock().unwrap(),
            [
                "sink /p",
                "granularity Some(4096)",
                "begin r 7 9",
                "write 9",
                "boundary",
                "cached r 7 9",
                "close",
                "source /p",
                "read 64",
            ]
        );
    }
}
