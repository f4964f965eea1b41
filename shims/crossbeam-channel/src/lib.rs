//! Offline shim for `crossbeam-channel`, backed by a `Mutex<VecDeque>` + `Condvar`.
//!
//! Provides the multi-producer/single-consumer subset the DSSP networked runtime
//! uses: [`unbounded`], a cloneable [`Sender`], and a blocking [`Receiver`].
//! Unlike the real crate the `Receiver` is not cloneable and there is no `select!`; the
//! runtime needs neither. See `shims/README.md`.
//!
//! The queue is a `VecDeque` whose capacity is retained across sends, so once the
//! channel has reached its steady-state depth a `send` moves the message in place and
//! performs **zero heap allocations** — a property the `dssp-net` transport's
//! zero-allocation-per-message guarantee relies on (the previous `std::sync::mpsc`
//! backing allocated a fresh block every 32 messages).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when the receiving side has hung up.
/// Carries the unsent message like the real crate's `SendError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when every sender has hung up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// Every sender has hung up and the channel is drained.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// Every sender has hung up and the channel is drained.
    Disconnected,
}

impl std::fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                write!(f, "receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

struct State<T> {
    queue: VecDeque<T>,
    /// Live `Sender` clones; 0 means the channel can never produce again.
    senders: usize,
    /// Whether the `Receiver` is still alive; sends fail once it is gone.
    rx_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled on every send and on the last sender disconnecting.
    ready: Condvar,
}

/// The sending half of an unbounded channel. Cloneable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel poisoned").senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("channel poisoned");
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends `msg`, never blocking (the channel is unbounded).
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.lock().expect("channel poisoned");
        if !state.rx_alive {
            return Err(SendError(msg));
        }
        state.queue.push_back(msg);
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }
}

/// The receiving half of an unbounded channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.state.lock().expect("channel poisoned").rx_alive = false;
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or every sender disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.state.lock().expect("channel poisoned");
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.shared.ready.wait(state).expect("channel poisoned");
        }
    }

    /// Blocks until a message arrives, every sender disconnects, or `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("channel poisoned");
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (next, _timed_out) = self
                .shared
                .ready
                .wait_timeout(state, deadline - now)
                .expect("channel poisoned");
            state = next;
        }
    }

    /// Returns a pending message without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.state.lock().expect("channel poisoned");
        match state.queue.pop_front() {
            Some(msg) => Ok(msg),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Iterates over messages, blocking between them, until disconnection.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }
}

/// Creates an unbounded channel, mirroring `crossbeam_channel::unbounded`.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            rx_alive: true,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_in_from_clones() {
        let (tx, rx) = unbounded();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        drop(tx);
        for h in handles {
            h.join().unwrap();
        }
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn recv_after_disconnect_errors() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_after_receiver_drop_errors_and_returns_the_message() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn queued_messages_survive_sender_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(9).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(9));
        handle.join().unwrap();
    }

    #[test]
    fn steady_state_sends_reuse_queue_capacity() {
        // Drain-and-refill many times: the VecDeque must not shrink, so capacity is
        // reused (the allocation-free property the net transport relies on).
        let (tx, rx) = unbounded::<u64>();
        for round in 0..100 {
            for i in 0..8 {
                tx.send(round * 8 + i).unwrap();
            }
            for i in 0..8 {
                assert_eq!(rx.recv(), Ok(round * 8 + i));
            }
        }
    }
}
