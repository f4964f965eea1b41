//! Timing wrappers around the public transport traits.
//!
//! [`TimedWorker`] and [`TimedServer`] implement `dssp_net::WorkerTransport` and
//! `dssp_net::ServerTransport` by forwarding **every** method to the wrapped
//! transport — including the buffer-reuse fast paths (`send_push`, `pull_into`,
//! `send_push_slice`, `send_pull_shards`, `recv_pull_apply`, `send_pull_reply`,
//! `send_payload`, `recycle_*`) whose trait defaults allocate. A wrapper that fell
//! back to a default would silently measure a different program.
//!
//! Untraced, a worker wrapper keeps one timestamp per push send in a preallocated
//! buffer and a server wrapper only forwards. Traced, both record [`Span`]s: each
//! has a layer, a parent layer, a start and an end, and every span of one round
//! carries the round id `(rank, iteration)`. Round `i` of a worker runs from its
//! push of iteration `i` to its push of iteration `i + 1`, so it holds that push's
//! send, the wait for its reply, the pull that follows and the compute of the next
//! gradient.

use dssp_net::transport::{PullOutcome, PullView};
use dssp_net::{Message, NetError, ServerTransport, TransportStats, WorkerTransport};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (one clock for every thread).
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// A worker's whole round: one push send to the next.
    Round,
    /// Sending one push (all slices of it on a group).
    PushSend,
    /// Waiting for the push's reply (`PushReply`, or every `SliceAck` on a group).
    ReplyWait,
    /// One pull exchange (the whole fan-out on a group).
    Pull,
    /// A pull returning to the next push send: the gradient computation.
    Compute,
    /// A group worker's `ClockPush` send to its `ClockGrant` receipt.
    GrantRtt,
    /// A push's arrival at the gating role to the reply that releases its worker.
    GateHold,
    /// The single server's own time after receiving a push.
    ServerPush,
    /// The coordinator's own time after receiving a `ClockPush`.
    CoordPush,
    /// A shard server's own time after receiving a `PushSlice`.
    ShardSlice,
    /// A shard server's own time after receiving a `PullShards`.
    ShardPull,
}

impl Layer {
    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "round",
            Layer::PushSend => "net.push_send",
            Layer::ReplyWait => "net.reply_wait",
            Layer::Pull => "net.pull",
            Layer::Compute => "worker.compute",
            Layer::GrantRtt => "coord.grant_rtt",
            Layer::GateHold => "ps.gate_hold",
            Layer::ServerPush => "server.self_push",
            Layer::CoordPush => "coord.self_push",
            Layer::ShardSlice => "shard.self_slice",
            Layer::ShardPull => "shard.self_pull",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the interval measures.
    pub layer: Layer,
    /// The layer this span nests in within the same round (`None` for a round).
    pub parent: Option<Layer>,
    /// Round id, first half: the worker's rank.
    pub rank: u32,
    /// Round id, second half: the push iteration that opened the round.
    pub iter: u64,
    /// Start, in [`now_ns`] nanoseconds.
    pub start: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// What one worker's transports observed. A single-server worker has one transport;
/// a group worker shares one log between its coordinator link and its shard links.
#[derive(Debug)]
pub struct WorkerLog {
    rank: u32,
    /// Push slices (and pull replies, and acks) per round: 1, or the shard-server
    /// count on a group.
    fan: usize,
    traced: bool,
    /// Send time of every push, in iteration order.
    pub pushes: Vec<u64>,
    /// Traced spans (empty when untraced).
    pub spans: Vec<Span>,
    iter: u64,
    push_start: u64,
    push_parts: usize,
    acks: usize,
    ack_start: u64,
    awaiting_ack: bool,
    pull_start: Option<u64>,
    pull_parts: usize,
    grant_sent: Option<u64>,
    last_pull_end: Option<u64>,
}

/// A worker log shared by the transports of one worker.
pub type SharedWorkerLog = Arc<Mutex<WorkerLog>>;

impl WorkerLog {
    /// A log for `rank` whose rounds fan out over `fan` links, with room for
    /// `capacity` pushes.
    pub fn shared(rank: usize, fan: usize, traced: bool, capacity: usize) -> SharedWorkerLog {
        Arc::new(Mutex::new(WorkerLog {
            rank: rank as u32,
            fan: fan.max(1),
            traced,
            pushes: Vec::with_capacity(capacity),
            spans: if traced {
                Vec::with_capacity(capacity * 6)
            } else {
                Vec::new()
            },
            iter: 0,
            push_start: 0,
            push_parts: 0,
            acks: 0,
            ack_start: 0,
            awaiting_ack: false,
            pull_start: None,
            pull_parts: 0,
            grant_sent: None,
            last_pull_end: None,
        }))
    }

    fn span(&mut self, layer: Layer, parent: Option<Layer>, start: u64, end: u64) {
        self.spans.push(Span {
            layer,
            parent,
            rank: self.rank,
            iter: self.iter,
            start,
            end,
        });
    }

    /// One push (or push slice) of `iteration` was sent during `[t0, t1]`.
    fn push_sent(&mut self, iteration: u64, t0: u64, t1: u64) {
        if iteration != self.iter {
            self.pushes.push(t0);
            if self.traced {
                if let Some(end) = self.last_pull_end.take() {
                    // The compute of this push's gradient closes the previous round.
                    self.span(Layer::Compute, Some(Layer::Round), end, t0);
                }
            }
            self.iter = iteration;
            self.push_start = t0;
            self.push_parts = 0;
            self.acks = 0;
            self.awaiting_ack = true;
        }
        self.push_parts += 1;
        if self.traced && self.push_parts == self.fan {
            self.span(Layer::PushSend, Some(Layer::Round), self.push_start, t1);
        }
    }

    /// A push acknowledgement (`PushReply` or `SliceAck`) was received in `[t0, t1]`.
    fn ack(&mut self, t0: u64, t1: u64) {
        if !self.awaiting_ack {
            return;
        }
        if self.acks == 0 {
            self.ack_start = t0;
        }
        self.acks += 1;
        if self.acks == self.fan {
            self.awaiting_ack = false;
            self.span(Layer::ReplyWait, Some(Layer::Round), self.ack_start, t1);
        }
    }

    fn pull_begin(&mut self, t0: u64) {
        self.pull_start.get_or_insert(t0);
    }

    fn pull_end(&mut self, t1: u64) {
        self.pull_parts += 1;
        if self.pull_parts == self.fan {
            if let Some(start) = self.pull_start.take() {
                self.span(Layer::Pull, Some(Layer::Round), start, t1);
            }
            self.pull_parts = 0;
            self.last_pull_end = Some(t1);
        }
    }

    fn grant_begin(&mut self, t0: u64) {
        self.grant_sent = Some(t0);
    }

    fn grant_end(&mut self, t1: u64) {
        if let Some(t0) = self.grant_sent.take() {
            self.span(Layer::GrantRtt, Some(Layer::Round), t0, t1);
        }
    }

    /// The worker finished: nothing it receives from now on belongs to a round.
    fn done(&mut self) {
        self.awaiting_ack = false;
        self.grant_sent = None;
    }

    /// The round spans implied by the push timestamps (round `i` = push `i` to push
    /// `i + 1`), appended to the traced spans.
    pub fn close_rounds(&mut self) {
        if !self.traced {
            return;
        }
        for (k, pair) in self.pushes.windows(2).enumerate() {
            self.spans.push(Span {
                layer: Layer::Round,
                parent: None,
                rank: self.rank,
                iter: k as u64 + 1,
                start: pair[0],
                end: pair[1],
            });
        }
    }
}

fn lock(log: &SharedWorkerLog) -> std::sync::MutexGuard<'_, WorkerLog> {
    log.lock()
        .expect("a worker thread panicked while recording into its log")
}

/// Which link of a worker a [`TimedWorker`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRole {
    /// The only link of a single-server worker.
    Server,
    /// A group worker's link to the coordinator (clock messages only).
    Coordinator,
    /// A group worker's link to one shard server (weights only).
    Shard,
}

/// A [`WorkerTransport`] that times what passes through it.
pub struct TimedWorker<T> {
    inner: T,
    role: LinkRole,
    traced: bool,
    log: SharedWorkerLog,
}

impl<T: WorkerTransport> TimedWorker<T> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: T, role: LinkRole, log: SharedWorkerLog) -> Self {
        let traced = lock(&log).traced;
        Self {
            inner,
            role,
            traced,
            log,
        }
    }
}

impl<T: WorkerTransport> WorkerTransport for TimedWorker<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        if !self.traced {
            return self.inner.send(msg);
        }
        match msg {
            Message::ClockPush { iteration, .. } if self.role == LinkRole::Coordinator => {
                let t0 = now_ns();
                let result = self.inner.send(msg);
                let mut log = lock(&self.log);
                if log.iter == *iteration {
                    log.grant_begin(t0);
                }
                result
            }
            Message::Done { .. } => {
                lock(&self.log).done();
                self.inner.send(msg)
            }
            _ => self.inner.send(msg),
        }
    }

    fn note_confirmed_clock(&mut self, clock: u64) {
        self.inner.note_confirmed_clock(clock)
    }

    fn recv(&mut self) -> Result<Message, NetError> {
        if !self.traced {
            return self.inner.recv();
        }
        let t0 = now_ns();
        let result = self.inner.recv();
        let t1 = now_ns();
        if let Ok(msg) = &result {
            let mut log = lock(&self.log);
            match msg {
                Message::PushReply { .. } | Message::SliceAck { .. } => log.ack(t0, t1),
                Message::ClockGrant { .. } => log.grant_end(t1),
                _ => {}
            }
        }
        result
    }

    fn send_push(&mut self, iteration: u64, trace: u64, grads: &[f32]) -> Result<(), NetError> {
        let t0 = now_ns();
        let result = self.inner.send_push(iteration, trace, grads);
        let t1 = now_ns();
        lock(&self.log).push_sent(iteration, t0, t1);
        result
    }

    fn pull_into(
        &mut self,
        delta: bool,
        trace: u64,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<PullOutcome, NetError> {
        if !self.traced {
            return self.inner.pull_into(delta, trace, weights, versions);
        }
        let t0 = now_ns();
        let result = self.inner.pull_into(delta, trace, weights, versions);
        let t1 = now_ns();
        let mut log = lock(&self.log);
        log.pull_begin(t0);
        log.pull_end(t1);
        result
    }

    fn send_push_slice(
        &mut self,
        iteration: u64,
        epoch: u64,
        trace: u64,
        grads: &[f32],
    ) -> Result<(), NetError> {
        let t0 = now_ns();
        let result = self.inner.send_push_slice(iteration, epoch, trace, grads);
        let t1 = now_ns();
        lock(&self.log).push_sent(iteration, t0, t1);
        result
    }

    fn send_pull_shards(
        &mut self,
        known_versions: &[u64],
        all: bool,
        epoch: u64,
        trace: u64,
    ) -> Result<(), NetError> {
        if !self.traced {
            return self
                .inner
                .send_pull_shards(known_versions, all, epoch, trace);
        }
        let t0 = now_ns();
        let result = self
            .inner
            .send_pull_shards(known_versions, all, epoch, trace);
        lock(&self.log).pull_begin(t0);
        result
    }

    fn recv_pull_apply(
        &mut self,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<PullOutcome, NetError> {
        if !self.traced {
            return self.inner.recv_pull_apply(weights, versions);
        }
        let result = self.inner.recv_pull_apply(weights, versions);
        let t1 = now_ns();
        lock(&self.log).pull_end(t1);
        result
    }
}

/// Which role a [`TimedServer`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerRole {
    /// `dssp_net::serve`: applies pushes and gates them.
    Single,
    /// `dssp_coord::coordinate`: gates `ClockPush`es, holds no weights.
    Coordinator,
    /// `dssp_coord::serve_shard`: applies slices and answers pulls, never gates.
    Shard,
}

/// What one server-side transport observed.
#[derive(Debug)]
pub struct ServerLog {
    role: ServerRole,
    traced: bool,
    /// Traced spans (gate holds and per-message self time).
    pub spans: Vec<Span>,
    /// `(rank, arrival ns)` of every push, in arrival order (gating roles only).
    pub push_order: Vec<(u32, u64)>,
    /// Nanoseconds between a `recv` returning and the next `recv` call, summed.
    pub busy_ns: u64,
    /// The largest `granted_extra` (the controller's r*) of any `PushReply` or
    /// `ClockGrant` sent, recorded traced or not.
    pub grant_max: u64,
    /// The `granted_extra` of every `PushReply` and `ClockGrant` sent, summed.
    pub grant_sum: u64,
    /// The first `recv` return; with `last_call` it bounds the busy share.
    pub first_ret: Option<u64>,
    /// Last `recv` call.
    pub last_call: u64,
    last: Option<(u64, Option<Layer>, u32, u64)>,
    gate: Vec<Option<(u64, u64)>>,
    cur_iter: Vec<u64>,
}

/// A [`ServerTransport`] that times what passes through it.
pub struct TimedServer<T> {
    inner: T,
    log: ServerLog,
}

impl<T: ServerTransport> TimedServer<T> {
    /// Wraps `inner` for `role`.
    pub fn new(inner: T, role: ServerRole, traced: bool, capacity: usize) -> Self {
        let slots = inner.num_workers();
        Self {
            inner,
            log: ServerLog {
                role,
                traced,
                spans: if traced {
                    Vec::with_capacity(capacity * 3)
                } else {
                    Vec::new()
                },
                push_order: if traced {
                    Vec::with_capacity(capacity)
                } else {
                    Vec::new()
                },
                busy_ns: 0,
                grant_max: 0,
                grant_sum: 0,
                first_ret: None,
                last_call: 0,
                last: None,
                gate: vec![None; slots],
                cur_iter: vec![0; slots],
            },
        }
    }

    /// The recorded log.
    pub fn into_log(self) -> ServerLog {
        self.log
    }

    fn on_recv_call(&mut self, t_call: u64) {
        let log = &mut self.log;
        if let Some((t_ret, layer, rank, iter)) = log.last.take() {
            log.busy_ns += t_call.saturating_sub(t_ret);
            if let Some(layer) = layer {
                log.spans.push(Span {
                    layer,
                    parent: None,
                    rank,
                    iter,
                    start: t_ret,
                    end: t_call,
                });
            }
        }
        log.last_call = t_call;
    }

    fn on_recv_return(&mut self, rank: usize, msg: &Message, t_ret: u64) {
        let log = &mut self.log;
        log.first_ret.get_or_insert(t_ret);
        let layer = match (log.role, msg) {
            (ServerRole::Single, Message::Push { iteration, .. })
            | (ServerRole::Coordinator, Message::ClockPush { iteration, .. }) => {
                log.cur_iter[rank] = *iteration;
                log.gate[rank] = Some((*iteration, t_ret));
                log.push_order.push((rank as u32, t_ret));
                Some(if log.role == ServerRole::Single {
                    Layer::ServerPush
                } else {
                    Layer::CoordPush
                })
            }
            (ServerRole::Shard, Message::PushSlice { iteration, .. }) => {
                log.cur_iter[rank] = *iteration;
                Some(Layer::ShardSlice)
            }
            (ServerRole::Shard, Message::PullShards { .. }) => Some(Layer::ShardPull),
            _ => None,
        };
        log.last = Some((t_ret, layer, rank as u32, log.cur_iter[rank]));
    }

    fn on_send(&mut self, rank: usize, msg: &Message) {
        let released = matches!(
            (self.log.role, msg),
            (ServerRole::Single, Message::PushReply { .. })
                | (ServerRole::Coordinator, Message::ClockGrant { .. })
        );
        if !released {
            return;
        }
        if let Some((iter, start)) = self.log.gate[rank].take() {
            let parent = if self.log.role == ServerRole::Single {
                Layer::ReplyWait
            } else {
                Layer::GrantRtt
            };
            self.log.spans.push(Span {
                layer: Layer::GateHold,
                parent: Some(parent),
                rank: rank as u32,
                iter,
                start,
                end: now_ns(),
            });
        }
    }
}

impl<T: ServerTransport> ServerTransport for TimedServer<T> {
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn recv(&mut self) -> Result<(usize, Message), NetError> {
        if !self.log.traced {
            return self.inner.recv();
        }
        self.on_recv_call(now_ns());
        let result = self.inner.recv();
        if let Ok((rank, msg)) = &result {
            self.on_recv_return(*rank, msg, now_ns());
        }
        result
    }

    fn send(&mut self, rank: usize, msg: &Message) -> Result<(), NetError> {
        let result = self.inner.send(rank, msg);
        if let Message::PushReply { granted_extra, .. }
        | Message::ClockGrant { granted_extra, .. } = msg
        {
            self.log.grant_max = self.log.grant_max.max(*granted_extra);
            self.log.grant_sum += granted_extra;
        }
        if self.log.traced {
            self.on_send(rank, msg);
        }
        result
    }

    fn send_pull_reply(&mut self, rank: usize, view: &PullView<'_>) -> Result<(), NetError> {
        self.inner.send_pull_reply(rank, view)
    }

    fn recycle_f32s(&mut self, rank: usize, buf: Vec<f32>) {
        self.inner.recycle_f32s(rank, buf)
    }

    fn recycle_u64s(&mut self, rank: usize, buf: Vec<u64>) {
        self.inner.recycle_u64s(rank, buf)
    }

    fn send_payload(&mut self, rank: usize, payload: &[u8]) -> Result<(), NetError> {
        self.inner.send_payload(rank, payload)
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }

    fn broadcast(&mut self, msg: &Message) {
        self.inner.broadcast(msg)
    }
}
