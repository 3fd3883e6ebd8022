//! Workload inputs derived from the `--seed`: datasets, checkpoints, and
//! the simulated users behind every session.

use std::sync::Arc;

use isrl_core::aa::{AaAgent, AaConfig};
use isrl_core::checkpoint;
use isrl_core::ea::{EaAgent, EaConfig};
use isrl_core::runner::sample_users;
use isrl_core::serving::{spawn_server, AlgoKind, ServePolicy, ServerConfig, ServerHandle};
use isrl_data::{generate, skyline, Dataset, Distribution};
use isrl_linalg::vector::dot;

/// Regret threshold ε of every session and training episode.
pub const EPS: f64 = 0.1;

/// Serve dataset: `anti` with this many points before the skyline, at d = 4.
pub const SERVE_N: usize = 100_000;
pub const SERVE_D: usize = 4;

/// Episodes each serve checkpoint is trained for during set-up.
pub const CHECKPOINT_EPISODES: usize = 40;

/// Independent seed streams; each input draws from its own stream so that
/// changing one input's derivation never shifts another's.
#[derive(Clone, Copy)]
#[repr(u64)]
pub enum Stream {
    ServeData = 1,
    EaCheckpoint = 2,
    AaCheckpoint = 3,
    CheckpointUsers = 4,
    SessionUser = 5,
    SessionSeed = 6,
    SessionAlgo = 7,
    Arrivals = 8,
    TrainAgent = 9,
    TrainUsers = 10,
}

/// SplitMix64 finalizer of `(seed, stream, index)`, masked to 52 bits so a
/// derived seed survives the wire protocol's exact-integer JSON fields.
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xF_FFFF_FFFF_FFFF
}

/// A uniform draw in `[0, 1)` from a derived seed.
pub fn unit(seed: u64, stream: Stream, index: u64) -> f64 {
    derive(seed, stream, index) as f64 / (1u64 << 52) as f64
}

/// One simulated user's session: which policy it asks for, the session
/// seed sent in `hello`, and the hidden utility the oracle answers from.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    pub algo: AlgoKind,
    pub seed: u64,
    pub utility: Vec<f64>,
}

impl SessionSpec {
    /// Session `k` of a workload; `mixed` draws EA or AA 50/50.
    pub fn new(seed: u64, k: u64, dim: usize, mixed: bool) -> Self {
        let algo = if mixed && unit(seed, Stream::SessionAlgo, k) < 0.5 {
            AlgoKind::Aa
        } else {
            AlgoKind::Ea
        };
        let utility = sample_users(dim, 1, derive(seed, Stream::SessionUser, k)).remove(0);
        Self {
            algo,
            seed: derive(seed, Stream::SessionSeed, k),
            utility,
        }
    }

    /// The oracle: `true` iff the user prefers `p` to `q` (ties answer
    /// "yes", as `SimulatedUser` does).
    pub fn prefers(&self, p: &[f64], q: &[f64]) -> bool {
        dot(&self.utility, p) >= dot(&self.utility, q)
    }
}

/// The serve workloads' shared inputs: the skylined dataset and the
/// checkpoints, round-tripped through the checkpoint format.
pub struct ServeInputs {
    pub data: Arc<Dataset>,
    pub policies: Vec<Arc<ServePolicy>>,
    /// The serialized checkpoints (compared across set-ups for determinism).
    pub blobs: Vec<Vec<u8>>,
    /// Episodes trained across all checkpoints, and the gradient updates
    /// they made.
    pub train_episodes: usize,
    pub updates: u64,
}

/// Builds the serve dataset and trains its checkpoints (EA, plus AA when
/// `with_aa`). `around_training` wraps the training calls, which is how the
/// traced run profiles them.
pub fn serve_inputs(
    seed: u64,
    with_aa: bool,
    around_training: &mut dyn FnMut(&mut dyn FnMut()),
) -> Result<ServeInputs, String> {
    let raw = generate(
        SERVE_N,
        SERVE_D,
        Distribution::AntiCorrelated,
        derive(seed, Stream::ServeData, 0),
    );
    let data = Arc::new(skyline(&raw));
    let users = sample_users(
        SERVE_D,
        CHECKPOINT_EPISODES,
        derive(seed, Stream::CheckpointUsers, 0),
    );
    let mut blobs = Vec::new();
    let mut updates = 0;
    around_training(&mut || {
        let mut ea = EaAgent::new(
            SERVE_D,
            EaConfig::paper_default().with_seed(derive(seed, Stream::EaCheckpoint, 0)),
        );
        ea.train(&data, &users, EPS);
        updates += ea.dqn().updates();
        blobs.push(checkpoint::save_ea(&ea));
        if with_aa {
            let mut aa = AaAgent::new(
                SERVE_D,
                AaConfig::paper_default().with_seed(derive(seed, Stream::AaCheckpoint, 0)),
            );
            aa.train(&data, &users, EPS);
            updates += aa.dqn().updates();
            blobs.push(checkpoint::save_aa(&aa));
        }
    });
    let policies = blobs
        .iter()
        .map(|b| ServePolicy::from_checkpoint(b).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("checkpoint round-trip: {e}"))?;
    Ok(ServeInputs {
        data,
        train_episodes: CHECKPOINT_EPISODES * blobs.len(),
        updates,
        policies,
        blobs,
    })
}

/// Spawns the in-process server over the workload's inputs on a free
/// localhost port.
pub fn bind(inputs: &ServeInputs) -> Result<ServerHandle, String> {
    spawn_server(
        Arc::clone(&inputs.data),
        inputs.policies.clone(),
        ServerConfig::default(),
    )
    .map_err(|e| format!("spawn_server: {e}"))
}
