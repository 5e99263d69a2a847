//! The warm model registry.
//!
//! On startup the registry scans an [`ArtifactStore`] directory's
//! manifest ([`ArtifactStore::list_keys`]) and builds a routing table
//! from [`ModelSpec`] — the serving-relevant slice of an
//! [`ArtifactKey`]: `(dataset, model, method, eps)` — to the full key on
//! disk. Models fault in lazily on first request (load the state dict,
//! rebuild the forecaster, restore the weights bit-exactly) and stay
//! warm in memory; when the configured byte budget fills, the
//! least-recently-used entry is evicted and will fault back in on its
//! next request.
//!
//! Entries are shared as `Arc<ModelEntry>` so eviction never invalidates
//! an in-flight batch: the scheduler holds its own reference and the
//! model memory is released when the last batch drains.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evalcore::artifact::{ArtifactKey, ArtifactStore};
use forecast::{build_model, BuildOptions, Forecaster, Profile, ALL_MODELS};
use parking_lot::Mutex;
use telemetry::counter_add;
use tsdata::datasets::ALL_DATASETS;

use crate::ServeError;

/// The serving-facing identity of a model: which dataset it was fitted
/// on, which architecture, and which lossy transform (if any) its
/// training data went through. Seed, profile and window geometry are
/// resolved by the registry from the artifact manifest — clients ask for
/// "DLinear on ETTm1 trained under SWING ε=0.05", not for a seed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Dataset name (e.g. `ETTm1`).
    pub dataset: String,
    /// Model name in the paper's spelling (e.g. `DLinear`, `GRU`).
    pub model: String,
    /// Lossy training transform (`None` = trained on raw data).
    pub method: Option<String>,
    /// Error bound of the transform as its exact `f64` bit pattern.
    pub eps_bits: Option<u64>,
}

impl ModelSpec {
    /// The spec an artifact key serves under.
    fn from_key(key: &ArtifactKey) -> ModelSpec {
        ModelSpec {
            dataset: key.dataset.clone(),
            model: key.model.clone(),
            method: key.method.clone(),
            eps_bits: key.eps_bits,
        }
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.dataset, self.model)?;
        match (&self.method, self.eps_bits) {
            (Some(m), Some(bits)) => write!(f, "/{}@{}", m, f64::from_bits(bits)),
            _ => write!(f, "/raw"),
        }
    }
}

/// Registry sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Byte budget for resident model state. When an insert pushes the
    /// total over this bound, least-recently-used entries are evicted
    /// (the newest entry itself is never evicted, so a single oversized
    /// model still serves).
    pub budget_bytes: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        // Generous for this workspace's Fast-profile models (a few
        // hundred KiB each): roughly the whole grid stays warm.
        RegistryConfig { budget_bytes: 256 << 20 }
    }
}

/// One warm model. The forecaster sits behind a mutex because
/// [`Forecaster`] is `Send` but not `Sync`, though
/// [`Forecaster::predict_batch`] takes `&self`. Two execution slots can
/// hold batches of one entry at once; the second waits on this mutex.
pub struct ModelEntry {
    /// The spec this entry serves.
    pub spec: ModelSpec,
    /// The full artifact key the weights came from.
    pub key: ArtifactKey,
    /// The restored forecaster.
    pub model: Mutex<Box<dyn Forecaster>>,
    /// Input window length `k`.
    pub input_len: usize,
    /// Forecast horizon `h`.
    pub horizon: usize,
    /// Estimated resident bytes (state-dict scalars + overhead).
    pub bytes: usize,
    /// Registry-unique id; the scheduler batches jobs by this.
    pub id: u64,
}

struct Resident {
    entry: Arc<ModelEntry>,
    /// LRU clock value of the last `get`.
    last_used: u64,
}

struct RegistryState {
    resident: HashMap<ModelSpec, Resident>,
    resident_bytes: usize,
    clock: u64,
}

/// The warm model registry. See the module docs.
pub struct ModelRegistry {
    store: Option<ArtifactStore>,
    manifest: HashMap<ModelSpec, ArtifactKey>,
    config: RegistryConfig,
    state: Mutex<RegistryState>,
    next_id: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ModelRegistry {
    /// Opens an artifact directory and indexes its manifest. Duplicate
    /// specs (several seeds of the same configuration) resolve to the
    /// lowest seed, deterministically.
    pub fn open(
        dir: impl Into<std::path::PathBuf>,
        config: RegistryConfig,
    ) -> Result<ModelRegistry, ServeError> {
        let store = ArtifactStore::open(dir).map_err(|e| ServeError::Model(e.to_string()))?;
        let mut manifest: HashMap<ModelSpec, ArtifactKey> = HashMap::new();
        for key in store.list_keys().map_err(|e| ServeError::Model(e.to_string()))? {
            let spec = ModelSpec::from_key(&key);
            match manifest.get(&spec) {
                Some(existing) if existing.seed <= key.seed => {}
                _ => {
                    manifest.insert(spec, key);
                }
            }
        }
        Ok(ModelRegistry {
            store: Some(store),
            manifest,
            config,
            state: Mutex::new(RegistryState {
                resident: HashMap::new(),
                resident_bytes: 0,
                clock: 0,
            }),
            next_id: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// A registry with no backing store — entries arrive only through
    /// [`ModelRegistry::insert_direct`]. For tests and in-process setups.
    pub fn empty(config: RegistryConfig) -> ModelRegistry {
        ModelRegistry {
            store: None,
            manifest: HashMap::new(),
            config,
            state: Mutex::new(RegistryState {
                resident: HashMap::new(),
                resident_bytes: 0,
                clock: 0,
            }),
            next_id: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Specs the registry can serve, sorted for stable display.
    pub fn specs(&self) -> Vec<ModelSpec> {
        let state = self.state.lock();
        let mut specs: Vec<ModelSpec> = self
            .manifest
            .keys()
            .chain(state.resident.keys())
            .cloned()
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        specs.sort_by_key(|s| s.to_string());
        specs
    }

    /// Number of currently-warm models.
    pub fn resident_count(&self) -> usize {
        self.state.lock().resident.len()
    }

    /// Estimated bytes held by warm models.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.state.lock().resident_bytes
    }

    /// `(hits, misses, evictions)` counters since startup.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Eagerly faults in up to `limit` manifest entries (startup warm-up,
    /// so the first requests don't pay fault-in latency). Returns how
    /// many models are warm afterwards.
    pub fn warm(&self, limit: usize) -> Result<usize, ServeError> {
        let mut specs: Vec<ModelSpec> = self.manifest.keys().cloned().collect();
        specs.sort_by_key(|s| s.to_string());
        for spec in specs.into_iter().take(limit) {
            self.get(&spec)?;
        }
        Ok(self.resident_count())
    }

    /// Resolves a spec to a warm entry, faulting it in from the artifact
    /// store if cold and evicting LRU entries if the byte budget fills.
    pub fn get(&self, spec: &ModelSpec) -> Result<Arc<ModelEntry>, ServeError> {
        {
            let mut state = self.state.lock();
            state.clock += 1;
            let clock = state.clock;
            if let Some(res) = state.resident.get_mut(spec) {
                res.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                counter_add("serve_registry_hits_total", &[], 1);
                return Ok(Arc::clone(&res.entry));
            }
        }
        // Cold: fault in outside the state lock (loading + rebuilding a
        // model can take milliseconds; other specs keep serving).
        self.misses.fetch_add(1, Ordering::Relaxed);
        counter_add("serve_registry_misses_total", &[], 1);
        let key =
            self.manifest.get(spec).ok_or_else(|| ServeError::UnknownModel(spec.to_string()))?;
        let entry = self.fault_in(spec, key)?;
        self.install(entry.clone());
        Ok(entry)
    }

    fn fault_in(&self, spec: &ModelSpec, key: &ArtifactKey) -> Result<Arc<ModelEntry>, ServeError> {
        let store =
            self.store.as_ref().ok_or_else(|| ServeError::UnknownModel(spec.to_string()))?;
        let state_dict =
            store.load(key).map_err(|e| ServeError::Model(e.to_string()))?.ok_or_else(|| {
                ServeError::Model(format!("artifact for {spec} vanished from the store"))
            })?;
        let kind = ALL_MODELS
            .iter()
            .copied()
            .find(|k| k.name() == key.model)
            .ok_or_else(|| ServeError::Model(format!("unknown model kind {:?}", key.model)))?;
        let season = ALL_DATASETS
            .iter()
            .find(|d| d.name() == key.dataset)
            .map(|d| d.samples_per_day() as usize)
            .filter(|&s| s >= 2);
        let profile = if key.profile == "Paper" { Profile::Paper } else { Profile::Fast };
        let mut model = build_model(
            kind,
            BuildOptions {
                input_len: key.input_len,
                horizon: key.horizon,
                season,
                seed: key.seed,
                profile,
            },
        );
        model
            .load_state(&state_dict)
            .map_err(|e| ServeError::Model(format!("restoring {spec}: {e}")))?;
        let bytes: usize =
            state_dict.entries().map(|(name, t)| name.len() + t.data().len() * 8 + 64).sum();
        Ok(Arc::new(ModelEntry {
            spec: spec.clone(),
            key: key.clone(),
            input_len: key.input_len,
            horizon: key.horizon,
            model: Mutex::new(model),
            bytes,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
        }))
    }

    /// Installs a pre-built entry (test hook and in-process serving; also
    /// the tail of a cold-path fault-in). Evicts LRU entries until the
    /// budget holds, never evicting the entry just installed.
    pub fn insert_direct(&self, entry: Arc<ModelEntry>) {
        self.install(entry);
    }

    fn install(&self, entry: Arc<ModelEntry>) {
        let mut state = self.state.lock();
        state.clock += 1;
        let clock = state.clock;
        let spec = entry.spec.clone();
        let bytes = entry.bytes;
        if let Some(old) = state.resident.insert(spec, Resident { entry, last_used: clock }) {
            state.resident_bytes -= old.entry.bytes;
        }
        state.resident_bytes += bytes;
        while state.resident_bytes > self.config.budget_bytes && state.resident.len() > 1 {
            let victim = state
                .resident
                .iter()
                .filter(|(_, r)| r.last_used != clock)
                .min_by_key(|(_, r)| r.last_used)
                .map(|(s, _)| s.clone());
            match victim {
                Some(spec) => {
                    let gone = state.resident.remove(&spec).expect("victim is resident");
                    state.resident_bytes -= gone.entry.bytes;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    counter_add("serve_registry_evictions_total", &[], 1);
                }
                None => break,
            }
        }
    }
}
