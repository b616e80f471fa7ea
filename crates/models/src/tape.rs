//! The one `TrainStep` of every autograd model (GCN, GraphSage, HAN, MAGNN,
//! R-GCN, GATNE, HybridGNN): a fresh tape per batch, backward, one Adam
//! step. A model supplies only its loss on the tape and its full-graph
//! snapshot.
//!
//! Each step records the spans `train/forward` (the model's loss on a fresh
//! tape, sampling included), `train/backward` and `train/optim`, and the
//! histogram `train/tape_nodes` (tape length per step).

use mhg_autograd::{Adam, Graph, Optimizer, ParamStore, Var};
use mhg_ckpt::{CkptError, StateDict};
use mhg_obs::Obs;
use mhg_train::{BatchLoss, Snapshot, TrainStep};
use rand::rngs::StdRng;

/// The model half of a [`TapeStep`].
pub trait TapeModel {
    /// One minibatch, produced by the model's sampling recipe.
    type Batch: Send;
    /// The artefact `fit` keeps from the best validation epoch.
    type Snapshot: Snapshot;

    /// Records the loss of `batch` on `g` and returns the batch-mean loss.
    fn loss(&self, g: &mut Graph<'_>, batch: Self::Batch, rng: &mut StdRng) -> Var;

    /// Computes the full-graph snapshot under `params` and returns it with
    /// its validation ROC-AUC.
    fn eval(&self, params: &ParamStore, rng: &mut StdRng) -> (f64, Self::Snapshot);
}

/// Trains a [`TapeModel`]: owns its parameters and Adam moments, and
/// checkpoints them under `model/params` and `model/opt`.
pub struct TapeStep<M> {
    model: M,
    params: ParamStore,
    opt: Adam,
    obs: Obs,
}

impl<M> TapeStep<M> {
    /// Wraps `model` and its registered `params`; the step phases record
    /// into `obs`, the run's handle. Every tape model uses Adam at
    /// `min(lr, 0.01)`.
    pub fn new(model: M, params: ParamStore, lr: f32, obs: Obs) -> Self {
        Self {
            model,
            params,
            opt: Adam::new(lr.min(0.01)),
            obs,
        }
    }
}

impl<M: TapeModel> TrainStep for TapeStep<M> {
    type Batch = M::Batch;
    type Snapshot = M::Snapshot;

    fn step(&mut self, batch: M::Batch, rng: &mut StdRng) -> BatchLoss {
        let forward = self.obs.span("train/forward");
        let mut g = Graph::new(&self.params);
        let loss = self.model.loss(&mut g, batch, rng);
        let loss_sum = g.scalar(loss) as f64;
        drop(forward);
        self.obs.record_value("train/tape_nodes", g.len() as u64);
        let backward = self.obs.span("train/backward");
        let grads = g.backward(loss);
        drop(backward);
        let _optim = self.obs.span("train/optim");
        self.opt.step(&mut self.params, &grads);
        BatchLoss { loss_sum, denom: 1 }
    }

    fn eval(&mut self, rng: &mut StdRng) -> (f64, M::Snapshot) {
        self.model.eval(&self.params, rng)
    }

    fn export_state(&self, dict: &mut StateDict) {
        self.params.export_state("model/params", dict);
        self.opt.export_state("model/opt", dict);
    }

    fn import_state(&mut self, dict: &StateDict) -> Result<(), CkptError> {
        self.params.import_state("model/params", dict)?;
        self.opt.import_state("model/opt", dict)
    }
}
