//! Multi-process deployment on one machine: [`launch`] runs the server in-process and
//! spawns one OS process per worker, connected over localhost TCP. This is the
//! `repro -- launch` backend and the networked analogue of the paper's 4-node
//! testbed, collapsed onto one host: every worker is a real process with its own
//! address space, exchanging gradients and weights through the wire protocol.
//!
//! The in-process counterpart, one worker thread per rank over loopback, is
//! [`crate::run_loopback`].

use crate::server::serve;
use crate::tcp::TcpServerTransport;
use crate::NetError;
use dssp_core::driver::JobConfig;
use dssp_sim::RunTrace;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// The result of a multi-process launch.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// The server's run trace.
    pub trace: RunTrace,
    /// The address the server listened on.
    pub addr: SocketAddr,
}

/// Binds `listen` (use port 0 for an ephemeral port), spawns `job.num_workers` child
/// processes running `worker_exe worker --connect <addr> --rank K <job flags>`, serves
/// the run in-process, and reaps every child.
///
/// `worker_exe` is typically `std::env::current_exe()` of the `repro` binary. Worker
/// stdout/stderr are inherited so their logs interleave with the server's.
///
/// On any server-side failure the children are killed before the error is returned; a
/// child that exits unsuccessfully after a successful run turns the launch into an
/// error too.
///
/// # Panics
///
/// Panics if the configuration is inconsistent ([`JobConfig::validate`]).
pub fn launch(job: &JobConfig, listen: &str, worker_exe: &Path) -> Result<LaunchOutcome, NetError> {
    job.validate();
    let mut transport = TcpServerTransport::bind(listen, job.num_workers)?;
    let addr = transport.local_addr();

    let mut children: Vec<Child> = Vec::with_capacity(job.num_workers);
    for rank in 0..job.num_workers {
        let spawned = Command::new(worker_exe)
            .arg("worker")
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--rank")
            .arg(rank.to_string())
            .args(crate::cli::job_args(job))
            .stdin(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                reap(&mut children, true);
                return Err(NetError::WorkerProcess(format!(
                    "failed to spawn worker {rank}: {e}"
                )));
            }
        }
    }

    let result = serve(job, &mut transport);
    let kill = result.is_err();
    let failures = reap(&mut children, kill);

    let trace = result?;
    if !failures.is_empty() {
        return Err(NetError::WorkerProcess(format!(
            "worker processes exited unsuccessfully: {failures:?}"
        )));
    }
    Ok(LaunchOutcome { trace, addr })
}

/// Waits for every child (killing first if `kill`), returning the ranks that failed.
fn reap(children: &mut [Child], kill: bool) -> Vec<usize> {
    let mut failures = Vec::new();
    for (rank, child) in children.iter_mut().enumerate() {
        if kill {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(status) if status.success() || kill => {}
            Ok(status) => failures.push({
                eprintln!("worker {rank} exited with {status}");
                rank
            }),
            Err(e) => failures.push({
                eprintln!("failed to wait for worker {rank}: {e}");
                rank
            }),
        }
    }
    failures
}
