//! Runs one training job on a workload's substrate, with every role on a thread of
//! this process, through the timing wrappers or (for equivalence checks) without
//! them.

use crate::probe::{
    now_ns, LinkRole, ServerLog, ServerRole, SharedWorkerLog, TimedServer, TimedWorker, WorkerLog,
};
use crate::workloads::Substrate;
use dssp_coord::{connect_links, coordinate, run_group_worker, serve_shard, ServerLink};
use dssp_core::driver::JobConfig;
use dssp_net::transport::loopback;
use dssp_net::{
    run_worker, serve, NetError, ServerTransport, TcpServerTransport, TcpWorkerTransport,
    TransportStats, WorkerReport, WorkerTransport,
};
use dssp_sim::{DataSpec, RunTrace};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Whether and how a job is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The raw transports, no wrappers at all.
    Off,
    /// Wrappers that keep one timestamp per push send.
    Untraced,
    /// Wrappers that record spans.
    Traced,
}

/// Everything one job produced.
#[derive(Debug)]
pub struct JobRun {
    /// The gating role's run trace.
    pub trace: RunTrace,
    /// Every worker's report, in rank order.
    pub reports: Vec<WorkerReport>,
    /// [`now_ns`] when the job was started, before any socket bind, dataset
    /// generation or model build.
    pub start_ns: u64,
    /// [`now_ns`] once every role had returned.
    pub end_ns: u64,
    /// Per-rank worker logs (empty for [`Probe::Off`]).
    pub workers: Vec<WorkerLog>,
    /// Server-side logs: `[server]`, or `[coordinator, shard 0, shard 1, ...]`
    /// (empty for [`Probe::Off`]).
    pub servers: Vec<ServerLog>,
    /// Transport counters of the server-side transports, in the order of `servers`.
    pub stats: Vec<TransportStats>,
}

/// An upper bound on the pushes one worker makes in `job`.
pub fn push_capacity(job: &JobConfig) -> usize {
    let train = match &job.data {
        DataSpec::Image(spec) => spec.train_size,
        DataSpec::Vector(spec) => spec.train_size,
    };
    let shard = train.div_ceil(job.num_workers);
    job.epochs * shard.div_ceil(job.batch_size) + 8
}

/// Runs `job` on `substrate` and returns what it produced, or the first error any
/// role reported.
pub fn run_job(job: &JobConfig, substrate: Substrate, probe: Probe) -> Result<JobRun, String> {
    let start_ns = now_ns();
    let logs: Vec<Option<SharedWorkerLog>> = (0..job.num_workers)
        .map(|rank| {
            let fan = if substrate == Substrate::TcpGroup {
                job.servers
            } else {
                1
            };
            (probe != Probe::Off)
                .then(|| WorkerLog::shared(rank, fan, probe == Probe::Traced, push_capacity(job)))
        })
        .collect();
    let (trace, reports, servers, stats) = match substrate {
        Substrate::TcpSingle => run_single(job, probe, &logs, true)?,
        Substrate::Loopback => run_single(job, probe, &logs, false)?,
        Substrate::TcpGroup => run_group(job, probe, &logs)?,
    };
    let end_ns = now_ns();
    let workers = logs
        .into_iter()
        .flatten()
        .map(|log| {
            let mut log = match std::sync::Arc::try_unwrap(log) {
                Ok(mutex) => mutex
                    .into_inner()
                    .expect("a worker thread panicked while recording into its log"),
                Err(_) => panic!("a worker transport outlived its job"),
            };
            log.close_rounds();
            log
        })
        .collect();
    Ok(JobRun {
        trace,
        reports,
        start_ns,
        end_ns,
        workers,
        servers,
        stats,
    })
}

type Roles = (
    RunTrace,
    Vec<WorkerReport>,
    Vec<ServerLog>,
    Vec<TransportStats>,
);

/// Runs `serve_fn` on `transport`, wrapped unless `probe` is off, and returns its
/// result with the wrapper's log and the transport's counters.
fn with_server<T: ServerTransport, R>(
    transport: T,
    role: ServerRole,
    probe: Probe,
    capacity: usize,
    serve_fn: impl FnOnce(&mut dyn ServerTransport) -> R,
) -> (R, Option<ServerLog>, TransportStats) {
    if probe == Probe::Off {
        let mut transport = transport;
        let result = serve_fn(&mut transport);
        let stats = transport.transport_stats();
        return (result, None, stats);
    }
    let mut timed = TimedServer::new(transport, role, probe == Probe::Traced, capacity);
    let result = serve_fn(&mut timed);
    let stats = timed.transport_stats();
    (result, Some(timed.into_log()), stats)
}

/// Wraps a worker-side transport when a log is given.
fn worker_link<T: WorkerTransport + 'static>(
    transport: T,
    role: LinkRole,
    log: &Option<SharedWorkerLog>,
) -> Box<dyn WorkerTransport> {
    match log {
        Some(log) => Box::new(TimedWorker::new(transport, role, log.clone())),
        None => Box::new(transport),
    }
}

fn join_all<T>(
    handles: Vec<JoinHandle<Result<T, NetError>>>,
    what: &str,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(handles.len());
    let mut failure = None;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(value)) => out.push(value),
            Ok(Err(e)) => {
                failure.get_or_insert(format!("{what} {i} failed: {e}"));
            }
            Err(_) => {
                failure.get_or_insert(format!("{what} {i} panicked"));
            }
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// A single-server job: `serve` on this thread, one `run_worker` thread per rank,
/// over localhost TCP (`tcp`) or the loopback transport.
fn run_single(
    job: &JobConfig,
    probe: Probe,
    logs: &[Option<SharedWorkerLog>],
    tcp: bool,
) -> Result<Roles, String> {
    let capacity = push_capacity(job) * job.num_workers;
    let spawn = |rank: usize, mut link: Box<dyn WorkerTransport>| {
        let job = job.clone();
        thread::spawn(move || run_worker(&job, rank, &mut *link))
    };
    let (result, log, stats, workers) = if tcp {
        let server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let mut links = Vec::with_capacity(job.num_workers);
        for log in logs {
            let t = TcpWorkerTransport::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            links.push(worker_link(t, LinkRole::Server, log));
        }
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(rank, link)| spawn(rank, link))
            .collect();
        let (result, log, stats) = with_server(server, ServerRole::Single, probe, capacity, |t| {
            serve(job, t)
        });
        (result, log, stats, join_all(handles, "worker"))
    } else {
        let (server, links) = loopback(job.num_workers);
        let handles: Vec<_> = links
            .into_iter()
            .zip(logs)
            .enumerate()
            .map(|(rank, (t, log))| spawn(rank, worker_link(t, LinkRole::Server, log)))
            .collect();
        let (result, log, stats) = with_server(server, ServerRole::Single, probe, capacity, |t| {
            serve(job, t)
        });
        (result, log, stats, join_all(handles, "worker"))
    };
    let trace = result.map_err(|e| format!("server failed: {e}"))?;
    Ok((trace, workers?, log.into_iter().collect(), vec![stats]))
}

/// A group job: `coordinate` on this thread, one `serve_shard` thread per shard
/// server and one `run_group_worker` thread per rank, all over localhost TCP.
fn run_group(
    job: &JobConfig,
    probe: Probe,
    logs: &[Option<SharedWorkerLog>],
) -> Result<Roles, String> {
    let capacity = push_capacity(job) * job.num_workers;
    let timeout = Some(Duration::from_millis(job.stall_timeout_ms.max(1)));
    // Bind and dial everything before spawning, so a failed bind or connect returns
    // before any thread exists that would have to be joined.
    let mut shard_transports = Vec::with_capacity(job.servers);
    for _ in 0..job.servers {
        let transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers + 1)
            .map_err(|e| format!("bind: {e}"))?;
        shard_transports.push(transport);
    }
    let server_addrs: Vec<String> = shard_transports
        .iter()
        .map(|t| t.local_addr().to_string())
        .collect();
    let coord_transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers)
        .map_err(|e| format!("bind: {e}"))?;
    let coord_addr = coord_transport.local_addr().to_string();
    let coord_links = connect_links(&server_addrs, timeout).map_err(|e| format!("connect: {e}"))?;

    let shard_handles: Vec<_> = shard_transports
        .into_iter()
        .enumerate()
        .map(|(index, transport)| {
            let job = job.clone();
            thread::spawn(move || {
                let (result, log, stats) =
                    with_server(transport, ServerRole::Shard, probe, capacity, |t| {
                        serve_shard(&job, index, t)
                    });
                result.map(|_| (log, stats))
            })
        })
        .collect();
    let mut worker_handles = Vec::with_capacity(job.num_workers);
    for (rank, log) in logs.iter().enumerate() {
        let job = job.clone();
        let coord_addr = coord_addr.clone();
        let server_addrs = server_addrs.clone();
        let log = log.clone();
        worker_handles.push(thread::spawn(move || -> Result<WorkerReport, NetError> {
            let coord = TcpWorkerTransport::connect(&coord_addr)?;
            let mut coord = worker_link(coord, LinkRole::Coordinator, &log);
            let mut links = Vec::with_capacity(server_addrs.len());
            for (i, addr) in server_addrs.iter().enumerate() {
                let mut t = TcpWorkerTransport::connect(addr)?;
                let label = format!("shard server {i} at {addr}");
                t.set_peer_label(label.clone());
                t.set_read_timeout(timeout)?;
                links.push(ServerLink::new(
                    worker_link(t, LinkRole::Shard, &log),
                    label,
                ));
            }
            run_group_worker(&job, rank, &mut *coord, links)
        }));
    }

    let (result, coord_log, coord_stats) = with_server(
        coord_transport,
        ServerRole::Coordinator,
        probe,
        capacity,
        |t| coordinate(job, t, coord_links),
    );
    let workers = join_all(worker_handles, "worker");
    let shards = join_all(shard_handles, "shard server");
    let trace = result.map_err(|e| format!("coordinator failed: {e}"))?;
    let workers = workers?;
    let mut server_logs: Vec<ServerLog> = coord_log.into_iter().collect();
    let mut stats = vec![coord_stats];
    for (log, shard_stats) in shards? {
        server_logs.extend(log);
        stats.push(shard_stats);
    }
    Ok((trace, workers, server_logs, stats))
}
