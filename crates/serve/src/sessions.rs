//! The bounded session table behind the streaming HTTP routes.
//!
//! A session is one client's live video stream: a [`StreamState`] parked
//! server-side between chunk uploads, plus the bookkeeping that makes a
//! fleet of them safe to hold — a **hard capacity** (the next create past
//! it is a typed, retryable 429), an **idle TTL** (streams whose clients
//! vanished are evicted lazily on the next table access, so an abandoned
//! camera feed cannot hold a slot forever), and **close-once semantics**
//! (a closed entry still queued inside the batch worker answers
//! [`ServeError::UnknownSession`] instead of resurrecting).
//!
//! The table hands out `Arc<SessionEntry>` handles; the per-session
//! [`StreamState`] sits behind its own mutex, locked only by the batch
//! worker while staging/encoding and never across a network read — a slow
//! client can stall its own stream, not the table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tsdx_core::{ModelConfig, StreamState};

use crate::error::ServeError;
use crate::stats::ServeStats;

/// Tuning for the session table.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Most simultaneously live sessions; the next create is a 429.
    pub max_sessions: usize,
    /// A session untouched this long is evicted on the next table access.
    pub idle_ttl: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { max_sessions: 256, idle_ttl: Duration::from_secs(120) }
    }
}

/// One live streaming session: its id, its stream state, and its activity
/// clock.
pub struct SessionEntry {
    id: u64,
    /// The per-stream extraction state. Locked by the batch worker for
    /// staging, batched encodes, and window readout.
    pub(crate) state: Mutex<StreamState>,
    /// Last time a client request touched this session.
    last_active: Mutex<Instant>,
    /// Set on close/evict so copies still queued in the batch worker
    /// answer `UnknownSession` instead of writing into a dead stream.
    closed: AtomicBool,
}

impl SessionEntry {
    /// The table-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the session was closed or evicted.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    fn touch(&self) {
        *self.last_active.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
    }

    fn idle_since(&self, now: Instant) -> Duration {
        now.saturating_duration_since(*self.last_active.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl std::fmt::Debug for SessionEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionEntry")
            .field("id", &self.id)
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

/// The bounded, TTL-swept table of live sessions.
#[derive(Debug)]
pub struct SessionManager {
    cfg: SessionConfig,
    table: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    next_id: AtomicU64,
    stats: Arc<ServeStats>,
}

impl SessionManager {
    /// An empty table with the given bounds, feeding `stats`.
    pub fn new(cfg: SessionConfig, stats: Arc<ServeStats>) -> Self {
        SessionManager { cfg, table: Mutex::new(HashMap::new()), next_id: AtomicU64::new(1), stats }
    }

    /// The configured bounds.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.lock_table().len()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a new session and returns its entry.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionLimit`] when every slot holds a live stream
    /// (idle sessions are swept first, so a full table means genuinely
    /// concurrent streams).
    pub fn create(&self, model_cfg: ModelConfig) -> Result<Arc<SessionEntry>, ServeError> {
        let mut table = self.lock_table();
        self.sweep_idle_locked(&mut table);
        let full = table.len() >= self.cfg.max_sessions;
        // Fault injection: the table reports exhaustion without a test
        // having to fill hundreds of real slots.
        #[cfg(feature = "fault-inject")]
        let full = tsdx_tensor::faults::SESSION_TABLE_FULL.take().is_some() || full;
        if full {
            ServeStats::inc(&self.stats.shed_sessions);
            return Err(ServeError::SessionLimit { capacity: self.cfg.max_sessions });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(SessionEntry {
            id,
            state: Mutex::new(StreamState::new(model_cfg)),
            last_active: Mutex::new(Instant::now()),
            closed: AtomicBool::new(false),
        });
        table.insert(id, Arc::clone(&entry));
        ServeStats::inc(&self.stats.sessions_opened);
        self.stats.active_sessions.store(table.len() as u64, Ordering::Relaxed);
        Ok(entry)
    }

    /// Looks up a live session and refreshes its activity clock.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] when no live session has this id.
    pub fn get(&self, id: u64) -> Result<Arc<SessionEntry>, ServeError> {
        let mut table = self.lock_table();
        self.sweep_idle_locked(&mut table);
        let entry = table.get(&id).ok_or(ServeError::UnknownSession { id })?;
        entry.touch();
        Ok(Arc::clone(entry))
    }

    /// Closes a session, freeing its slot immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] when no live session has this id.
    pub fn close(&self, id: u64) -> Result<(), ServeError> {
        let mut table = self.lock_table();
        let entry = table.remove(&id).ok_or(ServeError::UnknownSession { id })?;
        entry.closed.store(true, Ordering::SeqCst);
        ServeStats::inc(&self.stats.sessions_closed);
        self.stats.active_sessions.store(table.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Evicts every session idle past the TTL; runs lazily inside
    /// [`create`](Self::create) and [`get`](Self::get).
    fn sweep_idle_locked(&self, table: &mut HashMap<u64, Arc<SessionEntry>>) {
        let now = Instant::now();
        let before = table.len();
        table.retain(|_, entry| {
            let keep = entry.idle_since(now) < self.cfg.idle_ttl;
            if !keep {
                entry.closed.store(true, Ordering::SeqCst);
            }
            keep
        });
        let evicted = before - table.len();
        if evicted > 0 {
            self.stats.evicted_sessions.fetch_add(evicted as u64, Ordering::Relaxed);
            self.stats.active_sessions.store(table.len() as u64, Ordering::Relaxed);
        }
    }

    fn lock_table(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<SessionEntry>>> {
        // Entries are self-contained; recover the table instead of
        // poisoning every later request.
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdx_core::ModelConfig;

    fn tiny_cfg() -> ModelConfig {
        ModelConfig {
            frames: 4,
            height: 16,
            width: 16,
            tubelet_t: 2,
            patch: 8,
            dim: 16,
            spatial_depth: 1,
            temporal_depth: 1,
            heads: 2,
            dropout: 0.0,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn create_get_close_round_trip() {
        let stats = Arc::new(ServeStats::default());
        let m = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let a = m.create(tiny_cfg()).unwrap();
        let b = m.create(tiny_cfg()).unwrap();
        assert_ne!(a.id(), b.id(), "ids are unique");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(a.id()).unwrap().id(), a.id());
        m.close(a.id()).unwrap();
        assert!(a.is_closed(), "held handles observe the close");
        assert!(matches!(m.get(a.id()), Err(ServeError::UnknownSession { .. })));
        assert!(matches!(m.close(a.id()), Err(ServeError::UnknownSession { .. })));
        assert_eq!(m.len(), 1);
        assert_eq!(ServeStats::get(&stats.sessions_opened), 2);
        assert_eq!(ServeStats::get(&stats.sessions_closed), 1);
        assert_eq!(ServeStats::get(&stats.active_sessions), 1);
    }

    #[test]
    fn capacity_is_a_typed_retryable_shed() {
        let stats = Arc::new(ServeStats::default());
        let cfg = SessionConfig { max_sessions: 2, ..SessionConfig::default() };
        let m = SessionManager::new(cfg, stats);
        let a = m.create(tiny_cfg()).unwrap();
        let _b = m.create(tiny_cfg()).unwrap();
        let e = m.create(tiny_cfg()).unwrap_err();
        assert!(matches!(e, ServeError::SessionLimit { capacity: 2 }), "{e:?}");
        assert!(e.retryable());
        // Closing one frees the slot.
        m.close(a.id()).unwrap();
        assert!(m.create(tiny_cfg()).is_ok());
    }

    #[test]
    fn idle_sessions_are_evicted_on_access() {
        let stats = Arc::new(ServeStats::default());
        let cfg = SessionConfig { idle_ttl: Duration::from_millis(0), max_sessions: 8 };
        let m = SessionManager::new(cfg, Arc::clone(&stats));
        let a = m.create(tiny_cfg()).unwrap();
        // TTL 0: any later access sweeps it.
        assert!(matches!(m.get(a.id()), Err(ServeError::UnknownSession { .. })));
        assert!(a.is_closed(), "evicted entries read as closed");
        assert_eq!(ServeStats::get(&stats.evicted_sessions), 1);
        assert_eq!(ServeStats::get(&stats.active_sessions), 0);
    }
}
