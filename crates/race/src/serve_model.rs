//! A model of the serving layer's write handoff and graceful shutdown
//! (`crates/serve/src/server.rs`).
//!
//! The real protocol: every session thread runs its own writes while
//! holding the one `Mutex<ViewManager>`, then parks reading its socket;
//! `Server::stop` flips the `stopping` flag, **shuts down every
//! session's TCP socket** (the wakeup that unblocks sessions parked in
//! `read`), joins the sessions, and takes the manager back out of the
//! lock (`Mutex::into_inner`). The load-bearing invariants:
//!
//! * **One write at a time, none lost**: every session's request runs
//!   under the lock, and the manager comes back only after all of them,
//!   with the lock free.
//! * **Shutdown unblocks all sessions**: the join terminates.
//!
//! In the model, each session tries the lock and, finding it held, waits
//! until it is free (as a `std::sync::Mutex` parks a contended locker);
//! it runs its request and releases the lock, then parks on its socket
//! until the socket is closed. The stopper sets the flag, closes the
//! sockets one by one, joins the sessions and takes the manager back.
//! Trying before waiting keeps both lock orders racing from the start,
//! so the reduction explores each.
//!
//! The seeded foil [`ServeFoil::SkipSocketShutdown`] elides the
//! socket-close steps — the exact lost-wakeup bug `begin_stop` exists to
//! prevent — and the checker reports it as a deadlock with a replayable
//! schedule (sessions parked forever, stopper parked in join).
//!
//! This model is plain interleaving semantics: the real implementation
//! synchronizes through mutexes and socket shutdown, not hand-rolled
//! orderings, so SeqCst-equivalent exploration is faithful.

use crate::dpor::{Access, DporModel};
use crate::explore::{fnv1a, Model, Status, FNV_OFFSET};

/// Seeded protocol mutation the checker must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFoil {
    /// The protocol as written: must verify clean.
    None,
    /// `stop` flips the flag but never shuts the session sockets down —
    /// the lost wakeup the real `begin_stop` exists to prevent.
    SkipSocketShutdown,
}

/// Model parameters: `sessions` concurrent sessions, each with one
/// write in flight at shutdown time.
#[derive(Debug, Clone, Copy)]
pub struct ServeModel {
    /// Number of session threads.
    pub sessions: usize,
    /// Which (if any) protocol mutation to seed.
    pub foil: ServeFoil,
}

/// Session progress: try the lock (→ holding, or → waiting while another
/// session holds it) → run the request and release → park on the socket
/// → exited.
const WAITING: usize = 1;
const HOLDING: usize = 2;
const PARKED: usize = 3;
const EXITED: usize = 4;

/// Execution state of [`ServeModel`]. Threads `0..S` are sessions,
/// thread `S` is the stopper.
#[derive(Debug, Clone)]
pub struct ServeState {
    /// Per-session program counter (`0..=EXITED`).
    spc: Vec<usize>,
    /// The session holding the manager lock, if any.
    holder: Option<usize>,
    /// Sessions whose request ran under the lock, in lock order.
    ran: Vec<usize>,
    /// Per-session socket state (closed ⇒ a parked read returns).
    socket_closed: Vec<bool>,
    /// The `stopping` flag (modeled for fidelity; sessions learn of
    /// shutdown through their socket, as in the real code).
    stopping: bool,
    /// Requests the manager held when the stopper took it back, or
    /// `None` while it is shared (or was taken with the lock held).
    returned: Option<usize>,
    /// Stopper program counter.
    stpc: usize,
}

impl ServeModel {
    /// Stopper pc layout: 0 set flag, `1..=S` close socket `pc-1` (the
    /// foil skips straight past these), `S+1` join sessions, `S+2` take
    /// the manager back.
    fn close_slot(&self, stpc: usize) -> Option<usize> {
        (stpc >= 1 && stpc <= self.sessions).then(|| stpc - 1)
    }

    // DPOR object ids: the lock, the flag, then one per session socket.
    const LOCK: usize = 0;
    const STOPPING: usize = 1;
    fn obj_socket(&self, s: usize) -> usize {
        2 + s
    }
}

impl Model for ServeModel {
    type State = ServeState;

    fn init(&self) -> ServeState {
        ServeState {
            spc: vec![0; self.sessions],
            holder: None,
            ran: Vec::new(),
            socket_closed: vec![false; self.sessions],
            stopping: false,
            returned: None,
            stpc: 0,
        }
    }

    fn threads(&self) -> usize {
        self.sessions + 1
    }

    fn status(&self, s: &ServeState, t: usize) -> Status {
        let runnable = |ready: bool| {
            if ready {
                Status::Runnable
            } else {
                Status::Blocked
            }
        };
        if t < self.sessions {
            match s.spc[t] {
                WAITING => runnable(s.holder.is_none()),
                0 | HOLDING => Status::Runnable,
                PARKED => runnable(s.socket_closed[t]),
                _ => Status::Finished,
            }
        } else {
            let join = 1 + self.sessions;
            if s.stpc == join {
                runnable(s.spc.iter().all(|&pc| pc == EXITED))
            } else if s.stpc > join + 1 {
                Status::Finished
            } else {
                Status::Runnable
            }
        }
    }

    fn step(&self, s: &mut ServeState, t: usize) {
        if t < self.sessions {
            s.spc[t] = match s.spc[t] {
                0 | WAITING if s.holder.is_none() => {
                    s.holder = Some(t);
                    HOLDING
                }
                0 => WAITING,
                HOLDING => {
                    s.ran.push(t);
                    s.holder = None;
                    PARKED
                }
                // Socket closed: the read returns, the session exits.
                _ => EXITED,
            };
        } else {
            if s.stpc == 0 {
                s.stopping = true;
                if self.foil == ServeFoil::SkipSocketShutdown {
                    // The foil forgets the wakeup entirely.
                    s.stpc = 1 + self.sessions;
                    return;
                }
            } else if let Some(session) = self.close_slot(s.stpc) {
                s.socket_closed[session] = true;
            } else if s.stpc == 2 + self.sessions {
                // `Mutex::into_inner`: the manager comes back only unheld.
                s.returned = s.holder.is_none().then_some(s.ran.len());
            }
            s.stpc += 1;
        }
    }

    fn check(&self, s: &ServeState) -> Result<(), String> {
        let mut ran = s.ran.clone();
        ran.sort_unstable();
        if ran != (0..self.sessions).collect::<Vec<_>>() {
            return Err(format!("writes ran as {:?}, not once per session", s.ran));
        }
        if s.returned != Some(self.sessions) {
            return Err(format!(
                "manager taken back holding {:?} of {} writes (lock holder {:?})",
                s.returned, self.sessions, s.holder
            ));
        }
        if !s.stopping {
            return Err("execution finished without stopping".into());
        }
        Ok(())
    }
}

impl DporModel for ServeModel {
    fn access(&self, s: &ServeState, t: usize) -> Access {
        if t < self.sessions {
            match s.spc[t] {
                0 | WAITING | HOLDING => Access::Write(Self::LOCK),
                // Exiting reads the socket its close wrote, and enables
                // the stopper's join (which is `Global`).
                _ => Access::Write(self.obj_socket(t)),
            }
        } else if s.stpc == 0 {
            Access::Write(Self::STOPPING)
        } else if let Some(session) = self.close_slot(s.stpc) {
            Access::Write(self.obj_socket(session))
        } else {
            // Join reads every session; the take-back reads the lock and
            // the request count.
            Access::Global
        }
    }

    fn digest(&self, s: &ServeState) -> u64 {
        let mut h = FNV_OFFSET;
        for &pc in &s.spc {
            h = fnv1a(h, &[pc as u8]);
        }
        for &t in &s.ran {
            h = fnv1a(h, &[t as u8]);
        }
        h = fnv1a(h, &[s.holder.map_or(0, |t| t as u8 + 1), s.stopping as u8]);
        h = fnv1a(
            h,
            &(s.returned.map_or(u64::MAX, |n| n as u64)).to_le_bytes(),
        );
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpor::{exhaustive_final_digests, DporExplorer};
    use crate::explore::replays_to_deadlock;

    #[test]
    fn shutdown_protocol_verifies_clean() {
        let m = ServeModel {
            sessions: 2,
            foil: ServeFoil::None,
        };
        let stats = DporExplorer::default().explore(&m).unwrap();
        assert!(stats.executions >= 4, "{stats:?}");
        // The reduction still reaches both lock orders, exactly the
        // outcomes exhaustive search reaches.
        assert_eq!(stats.final_digests.len(), 2);
        assert_eq!(
            stats.final_digests,
            exhaustive_final_digests(&m, 1_000_000).unwrap()
        );
    }

    #[test]
    fn skipped_socket_shutdown_is_a_caught_lost_wakeup() {
        let m = ServeModel {
            sessions: 2,
            foil: ServeFoil::SkipSocketShutdown,
        };
        let bug = DporExplorer::default().explore(&m).unwrap_err();
        assert!(bug.message.contains("deadlock"), "{bug}");
        // The schedule replays to the stuck state: nothing runnable,
        // sessions parked on their sockets forever.
        assert!(replays_to_deadlock(&m, &bug.schedule).unwrap());
    }

    #[test]
    fn exploration_is_deterministic() {
        let m = ServeModel {
            sessions: 2,
            foil: ServeFoil::None,
        };
        let a = DporExplorer::default().explore(&m).unwrap();
        let b = DporExplorer::default().explore(&m).unwrap();
        assert_eq!(a, b);
    }
}
