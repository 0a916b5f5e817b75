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
//! The explorer runs every interleaving, so it reaches both lock
//! orders.
//!
//! The seeded foil [`ServeFoil::SkipSocketShutdown`] elides the
//! socket-close steps — the exact lost-wakeup bug `begin_stop` exists to
//! prevent — and the checker reports it as a deadlock with a replayable
//! schedule (sessions parked forever, stopper parked in join).
//!
//! This model is plain interleaving semantics: the real implementation
//! synchronizes through mutexes and socket shutdown, not hand-rolled
//! orderings, so SeqCst-equivalent exploration is faithful.

use crate::explore::{Model, Status};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{replay, replays_to_deadlock, Explorer};

    fn serve(foil: ServeFoil) -> ServeModel {
        ServeModel { sessions: 2, foil }
    }

    #[test]
    fn shutdown_protocol_verifies_clean() {
        let stats = Explorer::default()
            .explore(&serve(ServeFoil::None))
            .unwrap();
        assert_eq!(stats.interleavings, 704, "{stats:?}");
    }

    /// Sessions 0 and 1 each take the lock and run their write, then the
    /// stopper (thread 2) sets the flag and closes both sockets, the
    /// sessions exit, and the stopper joins them and takes the manager
    /// back. `first` and `second` name the lock order.
    fn lock_order(first: usize, second: usize) -> Vec<usize> {
        vec![first, first, second, second, 2, 2, 2, 0, 1, 2, 2]
    }

    #[test]
    fn session_0_can_take_the_lock_first() {
        let m = serve(ServeFoil::None);
        let s = replay(&m, &lock_order(0, 1)).unwrap();
        assert_eq!(s.ran, [0, 1]);
        m.check(&s).unwrap();
    }

    #[test]
    fn session_1_can_take_the_lock_first() {
        let m = serve(ServeFoil::None);
        let s = replay(&m, &lock_order(1, 0)).unwrap();
        assert_eq!(s.ran, [1, 0]);
        m.check(&s).unwrap();
    }

    #[test]
    fn skipped_socket_shutdown_is_a_caught_lost_wakeup() {
        let m = serve(ServeFoil::SkipSocketShutdown);
        let bug = Explorer::default().explore(&m).unwrap_err();
        assert!(bug.message.contains("deadlock"), "{bug}");
        // The schedule replays to the stuck state: nothing runnable,
        // sessions parked on their sockets forever.
        assert!(replays_to_deadlock(&m, &bug.schedule).unwrap());
    }

    #[test]
    fn exploration_is_deterministic() {
        let m = serve(ServeFoil::None);
        let a = Explorer::default().explore(&m).unwrap();
        let b = Explorer::default().explore(&m).unwrap();
        assert_eq!(a, b);
    }
}
