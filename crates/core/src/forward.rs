//! The command forwarder: deferred resolution → wire encoding → LRU
//! cache → LZ4 (Sections IV-B and V-A), plus the service-side receiver.
//!
//! Per-frame wire layout:
//!
//! ```text
//! u32 token_stream_len | lz4(token stream)
//!   token := 0x00 u64 cache_key            (command cached on both ends)
//!          | 0x01 u32 len bytes[len]       (full encoded command)
//! ```
//!
//! Both ends run the *same* deterministic [`Lru`] update rule, so the
//! receiver can always expand a `Ref` token; a miss is a protocol
//! violation surfaced as [`GBoosterError::CacheDesync`]. Neither end
//! keeps the bytes it cached: the forwarder's entries hold each
//! command's encoded length, which is all memory accounting reads, and
//! the receiver's hold the command decoded from them. A `Ref` then
//! expands to a clone that shares the cached command's payload `Arc`, so
//! the receiver decodes each distinct command once, when its `Full` body
//! arrives.
//!
//! Both directions reuse their scratch buffers across frames: the
//! forwarder's resolved-command list, encoded command and token stream,
//! and the receiver's decompressed token stream. Commands are encoded,
//! cached and decoded from borrowed slices, and LZ4 keeps one match
//! table per thread. [`ServiceReceiver::receive_into`] fills a list the
//! caller reuses, so a steady-state frame allocates its wire bytes, the
//! pointer data the resolver materializes, and the payloads of the
//! commands that miss the cache, and no list of commands. A buffer is
//! kept only while its capacity is at most [`SCRATCH_RETAIN_MAX`]
//! (64 KiB, the LZ4 window); a larger one, such as the setup stream's
//! ~1.6 MB token stream, is dropped after its frame so it does not pin
//! peak heap.

use gbooster_codec::lru::Lru;
use gbooster_codec::lz4::{self, Lz4Frame};
use gbooster_gles::command::{ClientMemory, GlCommand};
use gbooster_gles::serialize::{
    command_category, decode_command, encode_command, DeferredResolver,
};
use gbooster_gles::state::GlContext;
use gbooster_telemetry::{names, AttributionLog, Counter, Registry, UplinkFrameEntry};

use crate::error::GBoosterError;

/// Default cache capacity on each end (identical on both, by protocol).
pub const CACHE_CAPACITY: usize = 4096;

/// Largest scratch capacity kept from one frame to the next: 64 KiB, the
/// LZ4 window.
pub const SCRATCH_RETAIN_MAX: usize = 64 * 1024;

/// Readies `buf` for the next frame: cleared, or released when its
/// capacity exceeds [`SCRATCH_RETAIN_MAX`].
pub(crate) fn recycle<T>(buf: &mut Vec<T>) {
    if buf.capacity() * std::mem::size_of::<T>() > SCRATCH_RETAIN_MAX {
        *buf = Vec::new();
    } else {
        buf.clear();
    }
}

/// Result of forwarding one frame.
#[derive(Clone, Debug)]
pub struct ForwardedFrame {
    /// Bytes to hand to the transport.
    pub wire: Vec<u8>,
    /// Serialized command bytes before caching/compression.
    pub raw_bytes: usize,
    /// Token-stream bytes after caching, before LZ4.
    pub token_bytes: usize,
    /// Commands in the frame after deferred resolution.
    pub command_count: usize,
    /// Cache hits this frame.
    pub cache_hits: u64,
    /// Cache misses this frame.
    pub cache_misses: u64,
    /// LZ4 input/output accounting for the token stream.
    pub lz4: Lz4Frame,
}

impl ForwardedFrame {
    /// Overall compression ratio (wire ÷ raw); lower is better.
    ///
    /// Convention: a frame with no serialized command bytes reports `1.0`
    /// ("nothing gained, nothing lost") rather than dividing by zero. An
    /// empty frame still carries the 4-byte wire header, so any other
    /// definition would return `NaN` or `inf` and poison downstream
    /// averages.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.wire.len() as f64 / self.raw_bytes as f64
        }
    }
}

/// Pre-resolved registry handles for the forwarder counters.
#[derive(Clone, Debug)]
struct ForwardCounters {
    raw_bytes: Counter,
    token_bytes: Counter,
    wire_bytes: Counter,
    commands: Counter,
}

/// The user-device forwarder.
///
/// # Examples
///
/// ```
/// use gbooster_core::forward::{CommandForwarder, ServiceReceiver};
/// use gbooster_gles::command::{ClientMemory, GlCommand};
///
/// let mem = ClientMemory::new();
/// let mut tx = CommandForwarder::new();
/// let mut rx = ServiceReceiver::new();
/// let frame = vec![GlCommand::clear_all(), GlCommand::SwapBuffers];
/// let fwd = tx.forward_frame(&frame, &mem)?;
/// assert_eq!(rx.receive(&fwd.wire)?, frame);
/// # Ok::<(), gbooster_core::GBoosterError>(())
/// ```
#[derive(Debug)]
pub struct CommandForwarder {
    resolver: DeferredResolver,
    /// Each cached command's encoded length.
    cache: Lru<usize>,
    counters: Option<ForwardCounters>,
    attr: Option<AttributionLog>,
    /// Commands the resolver released for the current input command.
    resolved: Vec<GlCommand>,
    /// Wire encoding of the current command.
    encoded: Vec<u8>,
    /// The frame's token stream, before LZ4.
    tokens: Vec<u8>,
    /// The frame's wire bytes, copied out at their exact size.
    wire: Vec<u8>,
    /// The frame's per-(category, outcome) accounting for the
    /// attribution tap, in first-seen order so apportionment is
    /// deterministic.
    attr_entries: Vec<UplinkFrameEntry>,
}

impl Default for CommandForwarder {
    fn default() -> Self {
        Self::new()
    }
}

impl CommandForwarder {
    /// Creates a forwarder with the default cache capacity.
    pub fn new() -> Self {
        CommandForwarder {
            resolver: DeferredResolver::new(),
            cache: Lru::new(CACHE_CAPACITY),
            counters: None,
            attr: None,
            resolved: Vec::new(),
            encoded: Vec::new(),
            tokens: Vec::new(),
            wire: Vec::new(),
            attr_entries: Vec::new(),
        }
    }

    /// Attributes every forwarded frame's wire bytes along
    /// `GL category × cache outcome` into `log`. Like
    /// [`Self::attach_registry`], purely observational: wire output and
    /// cache state are unchanged.
    pub fn attach_attribution(&mut self, log: AttributionLog) {
        self.attr = Some(log);
    }

    /// Mirrors per-frame forwarding statistics into `registry`
    /// (`forward.*` byte/command counters plus the LRU cache's
    /// `cache.hits` / `cache.misses`). Attach once, on the sender side.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.cache.attach_registry(registry);
        self.counters = Some(ForwardCounters {
            raw_bytes: registry.counter(names::forward::RAW_BYTES),
            token_bytes: registry.counter(names::forward::TOKEN_BYTES),
            wire_bytes: registry.counter(names::forward::WIRE_BYTES),
            commands: registry.counter(names::forward::COMMANDS),
        });
    }

    /// Serializes one frame of intercepted commands into wire bytes.
    ///
    /// # Errors
    ///
    /// Returns wire/client-memory errors from deferred resolution or
    /// encoding.
    pub fn forward_frame(
        &mut self,
        commands: &[GlCommand],
        mem: &ClientMemory,
    ) -> Result<ForwardedFrame, GBoosterError> {
        gbooster_telemetry::prof_scope!(names::host::FORWARD);
        let hits_before = self.cache.hits();
        let misses_before = self.cache.misses();
        let CommandForwarder {
            resolver,
            cache,
            attr,
            resolved,
            encoded,
            tokens,
            wire,
            attr_entries,
            ..
        } = self;
        // A frame that failed midway leaves its scratch uncleared.
        resolved.clear();
        tokens.clear();
        attr_entries.clear();
        let mut raw_bytes = 0usize;
        let mut command_count = 0usize;
        for cmd in commands {
            resolver.push_into(cmd.clone(), mem, resolved)?;
            for ready in resolved.drain(..) {
                encoded.clear();
                encode_command(&ready, encoded)?;
                raw_bytes += encoded.len();
                command_count += 1;
                let token_start = tokens.len();
                let cache_hit = match cache.offer_with(encoded, || encoded.len()) {
                    Some(key) => {
                        tokens.push(0x00);
                        tokens.extend_from_slice(&key.to_le_bytes());
                        true
                    }
                    None => {
                        tokens.push(0x01);
                        tokens.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
                        tokens.extend_from_slice(encoded);
                        false
                    }
                };
                if attr.is_some() {
                    let category = command_category(&ready);
                    let entry = match attr_entries
                        .iter_mut()
                        .find(|e| e.category == category && e.cache_hit == cache_hit)
                    {
                        Some(entry) => entry,
                        None => {
                            attr_entries.push(UplinkFrameEntry {
                                category,
                                cache_hit,
                                commands: 0,
                                raw_bytes: 0,
                                token_bytes: 0,
                            });
                            attr_entries.last_mut().unwrap()
                        }
                    };
                    entry.commands += 1;
                    entry.raw_bytes += encoded.len() as u64;
                    entry.token_bytes += (tokens.len() - token_start) as u64;
                }
            }
        }
        let token_bytes = tokens.len();
        wire.clear();
        wire.extend_from_slice(&(token_bytes as u32).to_le_bytes());
        lz4::compress_into(tokens, wire);
        recycle(resolved);
        recycle(encoded);
        recycle(tokens);
        // The frame outlives this call, so it gets an exact-size copy
        // rather than the scratch buffer's slack.
        let wire = {
            let exact = wire.to_vec();
            recycle(wire);
            exact
        };
        let lz4_frame = Lz4Frame {
            input_bytes: token_bytes as u64,
            output_bytes: (wire.len() - 4) as u64,
        };
        if let Some(c) = &self.counters {
            c.raw_bytes.add(raw_bytes as u64);
            c.token_bytes.add(token_bytes as u64);
            c.wire_bytes.add(wire.len() as u64);
            c.commands.add(command_count as u64);
        }
        if let Some(attr) = &self.attr {
            attr.record_uplink_frame(&self.attr_entries, wire.len() as u64);
        }
        Ok(ForwardedFrame {
            wire,
            raw_bytes,
            token_bytes,
            command_count,
            cache_hits: self.cache.hits() - hits_before,
            cache_misses: self.cache.misses() - misses_before,
            lz4: lz4_frame,
        })
    }

    /// Scratch capacity, in bytes, this forwarder keeps between frames.
    #[cfg(test)]
    fn retained_scratch_bytes(&self) -> usize {
        self.resolved.capacity() * std::mem::size_of::<GlCommand>()
            + self.encoded.capacity()
            + self.tokens.capacity()
            + self.wire.capacity()
            + self.attr_entries.capacity() * std::mem::size_of::<UplinkFrameEntry>()
    }

    /// Lifetime cache hit rate.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Bytes of the commands the sender cache holds (memory-overhead
    /// accounting): the bytes a cache of encodings would keep resident.
    pub fn cache_resident_bytes(&self) -> usize {
        self.cache.values().sum()
    }
}

/// The service-device receiver: the inverse pipeline.
///
/// Every receiver fed the same stream holds the same deterministic cache
/// state, so a clone decodes the rest of the stream exactly as its source
/// would. The engines keep one receiver, the phone-side reference's: a
/// rejoining replica is brought current with a GL-state snapshot, and no
/// receiver travels.
#[derive(Clone, Debug)]
pub struct ServiceReceiver {
    /// Each cached command, decoded once.
    cache: Lru<GlCommand>,
    /// The current frame's decompressed token stream, and the list
    /// [`Self::receive`] decodes into; empty between frames, so a clone
    /// copies no scratch.
    tokens: Vec<u8>,
    commands: Vec<GlCommand>,
}

impl Default for ServiceReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceReceiver {
    /// Creates a receiver with the protocol cache capacity.
    pub fn new() -> Self {
        ServiceReceiver {
            cache: Lru::new(CACHE_CAPACITY),
            tokens: Vec::new(),
            commands: Vec::new(),
        }
    }

    /// Decodes one wire frame back into an exact-size list of commands.
    ///
    /// # Errors
    ///
    /// Returns [`GBoosterError`] on corrupt input or cache
    /// desynchronization.
    pub fn receive(&mut self, wire: &[u8]) -> Result<Vec<GlCommand>, GBoosterError> {
        gbooster_telemetry::prof_scope!(names::host::GLES_DECODE);
        let mut commands = std::mem::take(&mut self.commands);
        let received = self.decode_frame(wire, &mut commands).map(|()| {
            let mut exact = Vec::with_capacity(commands.len());
            exact.append(&mut commands);
            exact
        });
        recycle(&mut commands);
        self.commands = commands;
        received
    }

    /// [`Self::receive`] into `out`, which is cleared first: a caller
    /// that keeps `out` from frame to frame allocates no list.
    ///
    /// # Errors
    ///
    /// As [`Self::receive`]; `out` is then left empty.
    pub fn receive_into(
        &mut self,
        wire: &[u8],
        out: &mut Vec<GlCommand>,
    ) -> Result<(), GBoosterError> {
        gbooster_telemetry::prof_scope!(names::host::GLES_DECODE);
        out.clear();
        let received = self.decode_frame(wire, out);
        if received.is_err() {
            out.clear();
        }
        received
    }

    /// Decompresses one wire frame and appends its commands to
    /// `commands`, which grows as they decode (it is never sized from
    /// the unvalidated stream).
    fn decode_frame(
        &mut self,
        wire: &[u8],
        commands: &mut Vec<GlCommand>,
    ) -> Result<(), GBoosterError> {
        if wire.len() < 4 {
            return Err(GBoosterError::Codec("frame shorter than header".into()));
        }
        let token_len = u32::from_le_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize;
        let payload = &wire[4..];
        // Refuse a header the payload cannot decode to before reserving
        // anything for it.
        if token_len > lz4::max_decompressed_len(payload.len()) {
            return Err(GBoosterError::Codec(format!(
                "header claims {token_len} token bytes from a {}-byte payload",
                payload.len()
            )));
        }
        let mut tokens = std::mem::take(&mut self.tokens);
        let decoded = match lz4::decompress_into(payload, token_len, &mut tokens) {
            Err(e) => Err(GBoosterError::Codec(e.to_string())),
            Ok(()) if tokens.len() != token_len => Err(GBoosterError::Codec(format!(
                "token stream {} bytes, header said {token_len}",
                tokens.len()
            ))),
            Ok(()) => self.decode_tokens(&tokens, commands),
        };
        recycle(&mut tokens);
        self.tokens = tokens;
        decoded
    }

    /// Expands and decodes a decompressed token stream into `commands`.
    /// A `Ref` clones the cached command; only a `Full` body is decoded,
    /// and it is cached only once it decoded whole.
    fn decode_tokens(
        &mut self,
        tokens: &[u8],
        commands: &mut Vec<GlCommand>,
    ) -> Result<(), GBoosterError> {
        let mut i = 0usize;
        while i < tokens.len() {
            let tag = tokens[i];
            i += 1;
            match tag {
                0x00 => {
                    let bytes = tokens[i..]
                        .get(..8)
                        .ok_or_else(|| GBoosterError::Codec("truncated ref token".into()))?;
                    i += 8;
                    let key = u64::from_le_bytes(bytes.try_into().expect("slice is 8 bytes"));
                    let cmd = self.cache.get(key).ok_or(GBoosterError::CacheDesync(key))?;
                    commands.push(cmd.clone());
                }
                0x01 => {
                    let len_bytes = tokens[i..]
                        .get(..4)
                        .ok_or_else(|| GBoosterError::Codec("truncated full token".into()))?;
                    let len = u32::from_le_bytes(len_bytes.try_into().expect("slice is 4 bytes"))
                        as usize;
                    i += 4;
                    // Sliced from what remains, so a length off the wire
                    // is never added to an index.
                    let body = tokens[i..]
                        .get(..len)
                        .ok_or_else(|| GBoosterError::Codec("truncated command body".into()))?;
                    i += len;
                    let (cmd, used) = decode_command(body)?;
                    if used != body.len() {
                        return Err(GBoosterError::Codec("trailing bytes after command".into()));
                    }
                    self.cache.accept_full_with(body, || cmd.clone());
                    commands.push(cmd);
                }
                other => return Err(GBoosterError::Codec(format!("unknown token tag {other}"))),
            }
        }
        Ok(())
    }

    /// Scratch capacity, in bytes, this receiver keeps between frames.
    pub fn retained_scratch_bytes(&self) -> usize {
        self.tokens.capacity() + self.commands.capacity() * std::mem::size_of::<GlCommand>()
    }
}

/// The phone-side reference of the forwarded stream: the replication
/// rule of Section VI-B, stated once. Multicast hands every service
/// device the same bytes, so the one receiver here decodes each frame,
/// the frame's state-mutating commands apply to the reference state, and
/// the caller hands the decoded list to its replicas (only the dispatch
/// target executes draws). A rejoin resync, a migration's snapshot size
/// and the fabric's calibration all read the reference state.
#[derive(Debug, Default)]
pub(crate) struct Reference {
    rx: ServiceReceiver,
    ctx: GlContext,
}

impl Reference {
    /// Decodes `wire` into `out`, which is cleared first, and applies
    /// its state-mutating commands to the reference state.
    pub(crate) fn ingest(
        &mut self,
        wire: &[u8],
        out: &mut Vec<GlCommand>,
    ) -> Result<(), GBoosterError> {
        self.rx.receive_into(wire, out)?;
        self.apply_state(out)
    }

    /// Applies the state-mutating commands of `commands`; draws never
    /// touch replicated state.
    pub(crate) fn apply_state(&mut self, commands: &[GlCommand]) -> Result<(), GBoosterError> {
        for cmd in commands.iter().filter(|c| c.is_state_mutating()) {
            self.ctx.apply(cmd)?;
        }
        Ok(())
    }

    /// The reference GL state.
    pub(crate) fn context(&self) -> &GlContext {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use gbooster_gles::command::VertexSource;
    use gbooster_gles::serialize::WireError;
    use gbooster_gles::types::{AttribType, Primitive, ProgramId};
    use gbooster_workload::genre::GenreProfile;
    use gbooster_workload::tracegen::TraceGenerator;

    fn pipeline() -> (CommandForwarder, ServiceReceiver, ClientMemory) {
        (
            CommandForwarder::new(),
            ServiceReceiver::new(),
            ClientMemory::new(),
        )
    }

    #[test]
    fn empty_frame_round_trips() {
        let (mut tx, mut rx, mem) = pipeline();
        let fwd = tx.forward_frame(&[], &mem).unwrap();
        assert_eq!(rx.receive(&fwd.wire).unwrap(), Vec::new());
    }

    #[test]
    fn simple_frame_round_trips() {
        let (mut tx, mut rx, mem) = pipeline();
        let frame = vec![
            GlCommand::UseProgram(ProgramId(0)),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ];
        let fwd = tx.forward_frame(&frame, &mem).unwrap();
        assert_eq!(rx.receive(&fwd.wire).unwrap(), frame);
    }

    #[test]
    fn deferred_pointer_is_materialized_in_transit() {
        let (mut tx, mut rx, mut mem) = pipeline();
        let mem_ref = {
            let ptr = mem.alloc(vec![0u8; 48]);
            vec![
                GlCommand::VertexAttribPointer {
                    index: 0,
                    size: 2,
                    ty: AttribType::F32,
                    normalized: false,
                    stride: 0,
                    source: VertexSource::ClientMemory(ptr),
                },
                GlCommand::DrawArrays {
                    mode: Primitive::Triangles,
                    first: 0,
                    count: 3,
                },
                GlCommand::SwapBuffers,
            ]
        };
        let fwd = tx.forward_frame(&mem_ref, &mem).unwrap();
        let received = rx.receive(&fwd.wire).unwrap();
        assert_eq!(received.len(), 3);
        let GlCommand::VertexAttribPointer {
            source: VertexSource::Materialized(data),
            ..
        } = &received[0]
        else {
            panic!("pointer not materialized: {:?}", received[0]);
        };
        assert_eq!(data.len(), 24);
    }

    #[test]
    fn a_ref_shares_the_command_its_full_body_decoded_to() {
        let (mut tx, mut rx, mut mem) = pipeline();
        let ptr = mem.alloc(vec![7u8; 48]);
        let frame = vec![
            GlCommand::VertexAttribPointer {
                index: 0,
                size: 2,
                ty: AttribType::F32,
                normalized: false,
                stride: 0,
                source: VertexSource::ClientMemory(ptr),
            },
            GlCommand::DrawArrays {
                mode: Primitive::Triangles,
                first: 0,
                count: 3,
            },
            GlCommand::SwapBuffers,
        ];
        let payload = |cmd: &GlCommand| match cmd {
            GlCommand::VertexAttribPointer {
                source: VertexSource::Materialized(data),
                ..
            } => Arc::clone(data),
            other => panic!("pointer not materialized: {other:?}"),
        };
        let first = tx.forward_frame(&frame, &mem).unwrap();
        let decoded = rx.receive(&first.wire).unwrap();
        let second = tx.forward_frame(&frame, &mem).unwrap();
        assert_eq!(second.cache_hits, 3, "the second frame is all refs");
        let mut expanded = Vec::new();
        rx.receive_into(&second.wire, &mut expanded).unwrap();
        assert_eq!(expanded, decoded);
        assert!(
            Arc::ptr_eq(&payload(&expanded[0]), &payload(&decoded[0])),
            "a ref must not decode its command again"
        );
    }

    #[test]
    fn receive_into_reuses_the_list_and_empties_it_on_error() {
        let (mut tx, mut rx, _mem) = pipeline();
        let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 640, 360, 3);
        let setup = gen.setup_trace();
        let fwd = tx
            .forward_frame(&setup.commands, gen.client_memory())
            .unwrap();
        let mut mirror = rx.clone();
        let mut list = Vec::new();
        rx.receive_into(&fwd.wire, &mut list).unwrap();
        assert_eq!(list, mirror.receive(&fwd.wire).unwrap());
        let mut reused = 0;
        for _ in 0..20 {
            let frame = gen.next_frame(1.0 / 30.0);
            let fwd = tx
                .forward_frame(&frame.commands, gen.client_memory())
                .unwrap();
            let (held, fits) = (list.as_ptr(), list.capacity() >= fwd.command_count);
            rx.receive_into(&fwd.wire, &mut list).unwrap();
            assert_eq!(list, mirror.receive(&fwd.wire).unwrap());
            if fits {
                assert_eq!(list.as_ptr(), held, "a list that fits is reused");
                reused += 1;
            }
        }
        assert!(reused > 0);
        assert!(rx.receive_into(&fwd.wire[..2], &mut list).is_err());
        assert!(list.is_empty());
    }

    #[test]
    fn repeated_frames_shrink_dramatically() {
        // The Section V-A claim: caching + LZ4 collapses the redundant
        // portion of consecutive frames.
        let (mut tx, mut rx, _mem) = pipeline();
        let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 640, 360, 3);
        let setup = gen.setup_trace();
        let first = tx
            .forward_frame(&setup.commands, gen.client_memory())
            .unwrap();
        rx.receive(&first.wire).unwrap();
        let mut first_frame_wire = 0usize;
        let mut later_wire = 0usize;
        let mut later_raw = 0usize;
        for i in 0..30 {
            let frame = gen.next_frame(1.0 / 30.0);
            let fwd = tx
                .forward_frame(&frame.commands, gen.client_memory())
                .unwrap();
            let decoded = rx.receive(&fwd.wire).unwrap();
            assert_eq!(decoded.len(), fwd.command_count);
            if i == 0 {
                first_frame_wire = fwd.wire.len();
            } else if i >= 10 {
                later_wire += fwd.wire.len();
                later_raw += fwd.raw_bytes;
            }
        }
        let avg_later = later_wire / 20;
        assert!(
            avg_later * 2 < first_frame_wire,
            "steady-state {avg_later} vs first {first_frame_wire}"
        );
        let ratio = later_wire as f64 / later_raw as f64;
        assert!(
            ratio < 0.7,
            "combined ratio {ratio} exceeds the paper's 70%"
        );
    }

    #[test]
    fn scratch_retention_is_bounded_after_the_setup_stream() {
        let (mut tx, mut rx, _mem) = pipeline();
        let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 640, 360, 3);
        let setup = gen.setup_trace();
        let first = tx
            .forward_frame(&setup.commands, gen.client_memory())
            .unwrap();
        assert!(
            first.token_bytes > SCRATCH_RETAIN_MAX,
            "the setup stream must outgrow the retention limit"
        );
        assert_eq!(rx.receive(&first.wire).unwrap().len(), first.command_count);
        assert!(tx.retained_scratch_bytes() <= SCRATCH_RETAIN_MAX);
        assert!(rx.retained_scratch_bytes() <= SCRATCH_RETAIN_MAX);
        // What the receiver must rebuild: the frame after deferred
        // resolution, from a resolver that saw the same commands.
        let mut resolver = DeferredResolver::new();
        for cmd in &setup.commands {
            resolver.push(cmd.clone(), gen.client_memory()).unwrap();
        }
        for _ in 0..5 {
            let frame = gen.next_frame(1.0 / 30.0);
            let mut expected = Vec::new();
            for cmd in &frame.commands {
                resolver
                    .push_into(cmd.clone(), gen.client_memory(), &mut expected)
                    .unwrap();
            }
            let fwd = tx
                .forward_frame(&frame.commands, gen.client_memory())
                .unwrap();
            assert_eq!(rx.receive(&fwd.wire).unwrap(), expected);
            assert!(tx.retained_scratch_bytes() <= SCRATCH_RETAIN_MAX);
            assert!(rx.retained_scratch_bytes() <= SCRATCH_RETAIN_MAX);
        }
        assert!(
            rx.retained_scratch_bytes() > 0,
            "steady-state frames keep scratch"
        );
    }

    #[test]
    fn oversized_header_is_rejected_before_decompression() {
        let mut rx = ServiceReceiver::new();
        let err = rx
            .receive(&[0xff, 0xff, 0xff, 0xff, 0x10, b'a'])
            .unwrap_err();
        assert!(matches!(err, GBoosterError::Codec(_)), "{err:?}");
        assert_eq!(rx.retained_scratch_bytes(), 0);
    }

    #[test]
    fn a_full_token_with_a_huge_bulk_length_is_an_error() {
        // ShaderSource whose source length is a varint of u64::MAX.
        let mut body = vec![0x08, 0, 0, 0, 0];
        body.extend([0xff; 9]);
        body.push(0x01);
        let mut tokens = vec![0x01];
        tokens.extend((body.len() as u32).to_le_bytes());
        tokens.extend(&body);
        let mut wire = (tokens.len() as u32).to_le_bytes().to_vec();
        wire.extend(lz4::compress(&tokens));
        let err = ServiceReceiver::new().receive(&wire).unwrap_err();
        assert!(
            matches!(err, GBoosterError::Wire(WireError::Truncated)),
            "{err:?}"
        );
    }

    #[test]
    fn receiver_detects_desync() {
        let (mut tx, _, mem) = pipeline();
        let frame = vec![GlCommand::clear_all()];
        // Prime the sender cache, then replay only the *second* (Ref)
        // encoding against a fresh receiver.
        tx.forward_frame(&frame, &mem).unwrap();
        let second = tx.forward_frame(&frame, &mem).unwrap();
        let mut fresh_rx = ServiceReceiver::new();
        let err = fresh_rx.receive(&second.wire).unwrap_err();
        assert!(matches!(err, GBoosterError::CacheDesync(_)));
    }

    #[test]
    fn cloned_receiver_rejoins_where_a_fresh_one_desyncs() {
        let (mut tx, mut rx, mem) = pipeline();
        let frame = vec![GlCommand::clear_all(), GlCommand::SwapBuffers];
        let first = tx.forward_frame(&frame, &mem).unwrap();
        rx.receive(&first.wire).unwrap();
        // Resync-by-clone: the rejoining receiver copies the live peer's
        // cache and expands the all-Ref second frame a fresh receiver
        // cannot.
        let mut rejoined = rx.clone();
        let second = tx.forward_frame(&frame, &mem).unwrap();
        assert!(matches!(
            ServiceReceiver::new().receive(&second.wire).unwrap_err(),
            GBoosterError::CacheDesync(_)
        ));
        assert_eq!(rejoined.receive(&second.wire).unwrap(), frame);
    }

    #[test]
    fn corrupt_wire_is_rejected() {
        let (mut tx, mut rx, mem) = pipeline();
        let fwd = tx.forward_frame(&[GlCommand::clear_all()], &mem).unwrap();
        assert!(rx.receive(&fwd.wire[..2]).is_err());
        let mut corrupted = fwd.wire.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        // Either a codec error or (rarely) a decode error — never a panic.
        let _ = rx.receive(&corrupted);
    }

    #[test]
    fn hit_rate_grows_over_a_session() {
        let (mut tx, _, _) = pipeline();
        let mut gen = TraceGenerator::new(GenreProfile::puzzle(), 1.0, 320, 240, 5);
        let setup = gen.setup_trace();
        tx.forward_frame(&setup.commands, gen.client_memory())
            .unwrap();
        for _ in 0..50 {
            let frame = gen.next_frame(1.0 / 60.0);
            tx.forward_frame(&frame.commands, gen.client_memory())
                .unwrap();
        }
        assert!(
            tx.cache_hit_rate() > 0.6,
            "hit rate {}",
            tx.cache_hit_rate()
        );
    }

    #[test]
    fn zero_command_frame_has_finite_unit_ratio() {
        // A real empty frame (not a hand-built struct): the wire still
        // carries the 4-byte header while raw_bytes is 0, so ratio() must
        // fall back to the documented 1.0 convention instead of inf/NaN.
        let (mut tx, _, mem) = pipeline();
        let fwd = tx.forward_frame(&[], &mem).unwrap();
        assert_eq!(fwd.raw_bytes, 0);
        assert_eq!(fwd.command_count, 0);
        assert!(!fwd.wire.is_empty(), "header is always present");
        assert!(fwd.ratio().is_finite());
        assert_eq!(fwd.ratio(), 1.0);
    }

    #[test]
    fn registry_counters_mirror_forwarded_frames() {
        let registry = Registry::new();
        let (mut tx, _, mem) = pipeline();
        tx.attach_registry(&registry);
        let frame = vec![
            GlCommand::UseProgram(ProgramId(0)),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ];
        let a = tx.forward_frame(&frame, &mem).unwrap();
        let b = tx.forward_frame(&frame, &mem).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(names::forward::RAW_BYTES),
            (a.raw_bytes + b.raw_bytes) as u64
        );
        assert_eq!(
            snap.counter(names::forward::WIRE_BYTES),
            (a.wire.len() + b.wire.len()) as u64
        );
        assert_eq!(
            snap.counter(names::forward::COMMANDS),
            (a.command_count + b.command_count) as u64
        );
        assert_eq!(
            snap.counter(names::forward::CACHE_HITS),
            a.cache_hits + b.cache_hits
        );
        assert_eq!(
            snap.counter(names::forward::CACHE_MISSES),
            a.cache_misses + b.cache_misses
        );
        // Second identical frame is all hits, so the derived rate is real.
        assert!(snap.cache_hit_rate() > 0.0);
    }

    #[test]
    fn ratio_reports_one_for_empty() {
        let f = ForwardedFrame {
            wire: Vec::new(),
            raw_bytes: 0,
            token_bytes: 0,
            command_count: 0,
            cache_hits: 0,
            cache_misses: 0,
            lz4: Lz4Frame::default(),
        };
        assert_eq!(f.ratio(), 1.0);
    }

    #[test]
    fn attribution_reconciles_with_wire_and_cache_counters() {
        let mem = ClientMemory::new();
        let log = AttributionLog::new();
        let mut tx = CommandForwarder::new();
        tx.attach_attribution(log.clone());
        let frame = vec![
            GlCommand::UseProgram(ProgramId(1)),
            GlCommand::clear_all(),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ];
        let mut wire_total = 0u64;
        let mut raw_total = 0u64;
        let mut token_total = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        for _ in 0..3 {
            let fwd = tx.forward_frame(&frame, &mem).unwrap();
            wire_total += fwd.wire.len() as u64;
            raw_total += fwd.raw_bytes as u64;
            token_total += fwd.token_bytes as u64;
            hits += fwd.cache_hits;
            misses += fwd.cache_misses;
            assert_eq!(fwd.lz4.output_bytes + 4, fwd.wire.len() as u64);
            assert_eq!(fwd.lz4.input_bytes, fwd.token_bytes as u64);
        }
        let snap = log.snapshot();
        // Apportioned wire bytes sum exactly to the frames' wire bytes.
        assert_eq!(snap.uplink_wire_total(), wire_total);
        let raw: u64 = snap.uplink.values().map(|c| c.raw_bytes).sum();
        let tok: u64 = snap.uplink.values().map(|c| c.token_bytes).sum();
        assert_eq!(raw, raw_total);
        assert_eq!(tok, token_total);
        // Per-outcome command counts match the cache's own hit/miss view.
        let hit_cmds: u64 = snap
            .uplink
            .iter()
            .filter(|((_, o), _)| o == "hit")
            .map(|(_, c)| c.commands)
            .sum();
        let miss_cmds: u64 = snap
            .uplink
            .iter()
            .filter(|((_, o), _)| o == "miss")
            .map(|(_, c)| c.commands)
            .sum();
        assert_eq!(hit_cmds, hits);
        assert_eq!(miss_cmds, misses);
        // Repeated frames hit the cache, so hit rows must exist.
        assert!(hit_cmds > 0);
    }

    #[test]
    fn attribution_tap_does_not_change_wire_output() {
        let mem = ClientMemory::new();
        let mut plain = CommandForwarder::new();
        let mut tapped = CommandForwarder::new();
        tapped.attach_attribution(AttributionLog::new());
        let frame = vec![
            GlCommand::UseProgram(ProgramId(2)),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ];
        for _ in 0..3 {
            let a = plain.forward_frame(&frame, &mem).unwrap();
            let b = tapped.forward_frame(&frame, &mem).unwrap();
            assert_eq!(a.wire, b.wire);
        }
    }
}
