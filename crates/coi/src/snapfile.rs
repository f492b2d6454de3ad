//! The two snapshot files COI writes itself, each beside its codec.
//!
//! * [`StoreManifest`] — `{path}/local_store/manifest`, written by the
//!   pause: which `buf_{id}` files the local store holds.
//! * [`RuntimeState`] — the opaque runtime-state blob BLCR carries inside
//!   `{path}/device_snapshot`: everything the offload pipeline intended
//!   to do when it was captured.
//!
//! Both come back from a file system, so both decoders treat their input
//! as untrusted: a damaged file is a [`DecodeError`], which fails the
//! restore instead of the daemon. The byte layouts are pinned by tests —
//! a snapshot on disk outlives the build that wrote it.

use std::collections::VecDeque;

use phi_platform::Payload;

use crate::wire::{frame_bytes, Dec, DecodeError, Enc};

/// One queued offload-function invocation.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RunRequest {
    /// Host-assigned run id.
    pub(crate) id: u64,
    /// Function name.
    pub(crate) function: String,
    /// Misc argument bytes.
    pub(crate) args: Vec<u8>,
    /// Buffer ids.
    pub(crate) buffers: Vec<u64>,
}

impl RunRequest {
    fn encode(&self, e: Enc) -> Enc {
        e.u64(self.id)
            .string(&self.function)
            .bytes(&self.args)
            .list(&self.buffers, |e, b| e.u64(*b))
    }

    fn decode(d: &mut Dec<'_>) -> Result<RunRequest, DecodeError> {
        Ok(RunRequest {
            id: d.u64()?,
            function: d.string()?,
            args: d.bytes()?,
            buffers: d.list(|d| d.u64())?,
        })
    }
}

/// Execution phase of the active run.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum RunPhase {
    /// Executing; the cursor counts completed steps.
    Executing(u64),
    /// Finished; the result has not yet been sent to the host.
    ResultPending(Result<Vec<u8>, String>),
}

/// The run the executor has taken off the queue.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ActiveRun {
    pub(crate) req: RunRequest,
    pub(crate) phase: RunPhase,
}

/// What a restore reads back from the runtime-state blob.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RuntimeState {
    /// Device binary name.
    pub(crate) binary: String,
    /// Owning host process id.
    pub(crate) host_pid: u64,
    pub(crate) active: Option<ActiveRun>,
    pub(crate) queue: VecDeque<RunRequest>,
}

/// A buffer-table row in either file: `(id, size, RDMA address)`.
type BufRow = (u64, u64, u64);

fn encode_rows(e: Enc, rows: &[BufRow]) -> Enc {
    e.list(rows, |e, (id, size, addr)| e.u64(*id).u64(*size).u64(*addr))
}

fn decode_rows(d: &mut Dec<'_>) -> Result<Vec<BufRow>, DecodeError> {
    d.list(|d| Ok((d.u64()?, d.u64()?, d.u64()?)))
}

impl RuntimeState {
    /// Layout: binary, host pid, `enqueued`, the active run (tag 0 = none;
    /// 1 = request, then phase tag 0 cursor / 1 result / 2 error), the
    /// queue, the buffer table. `enqueued` (receives on the run channel)
    /// and `buffers` are part of the format but no restore reads them: the
    /// run channel is new after a restore, and the manifest is the
    /// authority on buffers.
    pub(crate) fn encode(&self, enqueued: u64, buffers: &[BufRow]) -> Vec<u8> {
        let mut e = Enc::new()
            .string(&self.binary)
            .u64(self.host_pid)
            .u64(enqueued);
        e = match &self.active {
            None => e.tag(0),
            Some(a) => {
                let e = a.req.encode(e.tag(1));
                match &a.phase {
                    RunPhase::Executing(cursor) => e.tag(0).u64(*cursor),
                    RunPhase::ResultPending(Ok(r)) => e.tag(1).bytes(r),
                    RunPhase::ResultPending(Err(m)) => e.tag(2).string(m),
                }
            }
        };
        let queue: Vec<&RunRequest> = self.queue.iter().collect();
        e = e.list(&queue, |e, r| r.encode(e));
        encode_rows(e, buffers).into_bytes()
    }

    pub(crate) fn decode(blob: &Payload) -> Result<RuntimeState, DecodeError> {
        let bytes = frame_bytes(blob)?;
        let mut d = Dec::new(&bytes);
        let binary = d.string()?;
        let host_pid = d.u64()?;
        d.u64()?;
        let active = match d.tag()? {
            0 => None,
            _ => Some(ActiveRun {
                req: RunRequest::decode(&mut d)?,
                phase: match d.tag()? {
                    0 => RunPhase::Executing(d.u64()?),
                    1 => RunPhase::ResultPending(Ok(d.bytes()?)),
                    _ => RunPhase::ResultPending(Err(d.string()?)),
                },
            }),
        };
        let queue = d.list(RunRequest::decode)?.into();
        decode_rows(&mut d)?;
        Ok(RuntimeState {
            binary,
            host_pid,
            active,
            queue,
        })
    }
}

/// The local-store manifest: whose buffers a snapshot directory holds.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct StoreManifest {
    /// Device binary name.
    pub(crate) binary: String,
    /// Owning host process id.
    pub(crate) host_pid: u64,
    /// `(id, size, RDMA address at pause time)` per COI buffer; the
    /// restore pairs each old address with the re-registered one.
    pub(crate) buffers: Vec<BufRow>,
}

impl StoreManifest {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let e = Enc::new().string(&self.binary).u64(self.host_pid);
        encode_rows(e, &self.buffers).into_bytes()
    }

    pub(crate) fn decode(file: &Payload) -> Result<StoreManifest, DecodeError> {
        let bytes = frame_bytes(file)?;
        let mut d = Dec::new(&bytes);
        Ok(StoreManifest {
            binary: d.string()?,
            host_pid: d.u64()?,
            buffers: decode_rows(&mut d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(any::<u8>(), 0..16)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    fn request() -> impl Strategy<Value = RunRequest> {
        (
            any::<u64>(),
            text(),
            prop::collection::vec(any::<u8>(), 0..24),
            prop::collection::vec(any::<u64>(), 0..6),
        )
            .prop_map(|(id, function, args, buffers)| RunRequest {
                id,
                function,
                args,
                buffers,
            })
    }

    /// No run, or a run in each of the three phases.
    fn active() -> impl Strategy<Value = Option<ActiveRun>> {
        (
            0u8..4,
            request(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..24),
            text(),
        )
            .prop_map(|(which, req, cursor, ret, message)| {
                let phase = match which {
                    0 => return None,
                    1 => RunPhase::Executing(cursor),
                    2 => RunPhase::ResultPending(Ok(ret)),
                    _ => RunPhase::ResultPending(Err(message)),
                };
                Some(ActiveRun { req, phase })
            })
    }

    fn rows() -> impl Strategy<Value = Vec<BufRow>> {
        prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..6)
    }

    proptest! {
        #[test]
        fn runtime_state_round_trips(
            header in (text(), any::<u64>(), any::<u64>()),
            active in active(),
            queue in prop::collection::vec(request(), 0..5),
            table in rows(),
        ) {
            let (binary, host_pid, enqueued) = header;
            let state = RuntimeState { binary, host_pid, active, queue: queue.into() };
            let blob = Payload::bytes(state.encode(enqueued, &table));
            prop_assert_eq!(RuntimeState::decode(&blob), Ok(state));
        }

        #[test]
        fn manifest_round_trips(binary in text(), host_pid in any::<u64>(), buffers in rows()) {
            let manifest = StoreManifest { binary, host_pid, buffers };
            let file = Payload::bytes(manifest.encode());
            prop_assert_eq!(StoreManifest::decode(&file), Ok(manifest));
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
            name_len in 0u64..8,
        ) {
            // Raw noise mostly dies on the first length prefix; a
            // plausible one drives the later readers over short input.
            let mut named = name_len.to_le_bytes().to_vec();
            named.extend_from_slice(&bytes);
            for file in [bytes, named] {
                let p = Payload::bytes(file);
                let _ = RuntimeState::decode(&p);
                let _ = StoreManifest::decode(&p);
            }
        }
    }

    #[test]
    fn synthetic_files_are_typed_errors() {
        let mut headed = Payload::bytes(0u64.to_le_bytes().to_vec());
        headed.append(Payload::synthetic(9, 64));
        for p in [Payload::synthetic(9, 64), headed] {
            assert!(RuntimeState::decode(&p).is_err());
            assert!(StoreManifest::decode(&p).is_err());
        }
    }

    fn le(v: u64) -> [u8; 8] {
        v.to_le_bytes()
    }

    #[test]
    fn manifest_layout_is_pinned() {
        let manifest = StoreManifest {
            binary: "md.so".into(),
            host_pid: 7,
            buffers: vec![(1, 4096, 0x1000)],
        };
        let expect = [
            &le(5)[..],
            b"md.so",
            &le(7),
            &le(1),
            &le(1),
            &le(4096),
            &le(0x1000),
        ]
        .concat();
        assert_eq!(manifest.encode(), expect);
    }

    #[test]
    fn runtime_state_layout_is_pinned() {
        let req = |id| RunRequest {
            id,
            function: "f".into(),
            args: vec![9],
            buffers: vec![2],
        };
        let req_bytes = |id| [&le(id)[..], &le(1), b"f", &le(1), &[9], &le(1), &le(2)].concat();
        let state = RuntimeState {
            binary: "md.so".into(),
            host_pid: 7,
            active: Some(ActiveRun {
                req: req(3),
                phase: RunPhase::Executing(5),
            }),
            queue: VecDeque::from([req(4)]),
        };
        let expect = [
            &le(5)[..],
            b"md.so",
            &le(7),
            &le(11), // enqueued
            &[1],    // an active run ...
            &req_bytes(3),
            &[0], // ... executing, at cursor 5
            &le(5),
            &le(1), // one queued request
            &req_bytes(4),
            &le(1), // one buffer-table row
            &le(1),
            &le(4096),
            &le(0x1000),
        ]
        .concat();
        assert_eq!(state.encode(11, &[(1, 4096, 0x1000)]), expect);
        // The other two phases, and no run at all.
        let tail = |active: Option<RunPhase>| {
            let active = active.map(|phase| ActiveRun { req: req(3), phase });
            let state = RuntimeState {
                active,
                queue: VecDeque::new(),
                ..state.clone()
            };
            state.encode(0, &[])[29..].to_vec()
        };
        let empty_lists = [le(0), le(0)].concat();
        assert_eq!(tail(None), [&[0][..], &empty_lists].concat());
        assert_eq!(
            tail(Some(RunPhase::ResultPending(Ok(vec![8])))),
            [&[1][..], &req_bytes(3), &[1], &le(1), &[8], &empty_lists].concat()
        );
        assert_eq!(
            tail(Some(RunPhase::ResultPending(Err("no".into())))),
            [&[1][..], &req_bytes(3), &[2], &le(2), b"no", &empty_lists].concat()
        );
    }
}
