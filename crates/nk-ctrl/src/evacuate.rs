//! Planned, revertible VM moves and host evacuation.
//!
//! Warm migration ([`nk_types::VmWarmExport`] and friends) moves *one* VM;
//! evacuating a whole host — many VMs across many NSM shares, under faults —
//! needs ordering, pacing and a partial-failure story. This module is the
//! *deciding* half of that story, in the same mechanism-free spirit as the
//! rest of `nk-ctrl`: an [`EvacPlan`] compiles a set of moves off one host
//! into a DAG of typed [`EvacAction`]s (freeze → export → reroute → install
//! → thaw per VM, scale-to-zero retirement of the emptied shares at the
//! tail), every action has a well-defined revert, and [`PlanRun`] tracks
//! execution so a mid-plan failure yields the exact list of completed
//! actions to unwind — in reverse completion order, back to a clean
//! pre-plan state.
//!
//! The executor lives in `nk-cluster`, which owns the hosts and the fabric,
//! and runs *every* VM move as a plan: `Cluster::evacuate_host` a whole
//! host, `Cluster::migrate_vm` / `Cluster::migrate_vm_warm` a one-chain
//! plan for a single VM. This module owns the *shape* of the operation:
//! which steps exist, what each depends on, how concurrency is paced
//! (`pace` VMs per wave), and the serializable [`PlanEvent`] log that makes
//! an evacuation as replayable as every other cluster decision.

use nk_types::{HostId, NkError, NkResult, NsmId, VmId};
use serde::{Deserialize, Serialize};

/// How a VM travels during an evacuation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvacMode {
    /// Freeze the VM, export live connection state, reroute its addresses
    /// and install on the destination — zero reconnects, zero drain wait.
    /// Requires the VM to be its source share's only tenant.
    Warm,
    /// Export identity only; pinned connections keep draining on the source
    /// until their count hits zero.
    Drained,
}

/// One typed action of an evacuation plan. Every variant has a revert the
/// executor applies when a later action fails (see `nk-cluster`):
/// freeze ↔ thaw, export ↔ re-import/cancel, reroute ↔ route restore,
/// install ↔ uninstall, thaw ↔ re-freeze + home restore, retire ↔ revive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvacAction {
    /// Open the warm-migration freeze window on the VM (warm chains only).
    Freeze {
        /// The VM to freeze.
        vm: VmId,
    },
    /// Export the VM off the evacuating host, warm or drained.
    Export {
        /// The VM to export.
        vm: VmId,
        /// Whether live connection state travels with it.
        mode: EvacMode,
    },
    /// Steer the VM's transplanted addresses to the destination trunk
    /// (warm chains only).
    Reroute {
        /// The VM whose addresses move.
        vm: VmId,
        /// The destination host.
        to: HostId,
    },
    /// Install the export on the destination host.
    Install {
        /// The VM to install.
        vm: VmId,
        /// The destination host.
        to: HostId,
    },
    /// Resume the VM on the destination: thaw (warm) or flip its home and
    /// begin the source-side drain (drained).
    Thaw {
        /// The VM to resume.
        vm: VmId,
        /// Its new home.
        to: HostId,
    },
    /// Scale an emptied source NSM share to zero cores (plan tail; a share
    /// that still serves connections simply declines, which is not a
    /// failure).
    RetireShare {
        /// The source share to retire.
        nsm: NsmId,
    },
}

/// One node of the compiled DAG: an action, the wave it is paced into, and
/// the step ids it depends on. Step ids equal execution order by
/// construction (`deps` only ever point backwards).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvacStep {
    /// Position in the plan; doubles as the execution order.
    pub id: usize,
    /// Concurrency wave (VM chains are paced `pace` per wave; retirements
    /// run in a final wave of their own).
    pub wave: usize,
    /// The action.
    pub action: EvacAction,
    /// Step ids that must complete before this one may run.
    pub deps: Vec<usize>,
}

/// One VM's travel order, as the planner decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvacMove {
    /// The VM leaving the evacuating host.
    pub vm: VmId,
    /// Its destination host.
    pub to: HostId,
    /// Warm or drained.
    pub mode: EvacMode,
}

/// A compiled evacuation: the full action DAG for clearing one host.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvacPlan {
    /// The host being evacuated.
    pub host: HostId,
    /// VM chains started per wave (the bounded concurrency knob).
    pub pace: usize,
    /// The moves the plan executes, in chain order.
    pub moves: Vec<EvacMove>,
    /// The compiled steps, in execution order (`steps[i].id == i`).
    pub steps: Vec<EvacStep>,
}

impl EvacPlan {
    /// Compile an evacuation of `host` into its step DAG.
    ///
    /// VM chains are partitioned into waves of `pace`; inside a wave the
    /// steps are laid out phase-major (all freezes, then all exports, …) so
    /// the executor can share one freeze window per wave, while the `deps`
    /// edges keep each VM's chain strictly ordered. `retire` shares are
    /// scaled to zero in a final wave depending on every chain's last step.
    ///
    /// Refuses (`BadConfig`) a zero pace, a move targeting the evacuating
    /// host itself, or a VM listed twice.
    pub fn compile(
        host: HostId,
        moves: &[EvacMove],
        retire: &[NsmId],
        pace: usize,
    ) -> NkResult<EvacPlan> {
        if pace == 0 {
            return Err(NkError::BadConfig);
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in moves {
            if m.to == host || !seen.insert(m.vm) {
                return Err(NkError::BadConfig);
            }
        }
        let mut steps: Vec<EvacStep> = Vec::new();
        let mut last_of_chain: Vec<Option<usize>> = vec![None; moves.len()];
        let waves = moves.len().div_ceil(pace);
        for wave in 0..waves {
            let chains = wave * pace..((wave + 1) * pace).min(moves.len());
            for phase in 0..5usize {
                for chain in chains.clone() {
                    let m = &moves[chain];
                    let action = match (phase, m.mode) {
                        (0, EvacMode::Warm) => EvacAction::Freeze { vm: m.vm },
                        (1, _) => EvacAction::Export {
                            vm: m.vm,
                            mode: m.mode,
                        },
                        (2, EvacMode::Warm) => EvacAction::Reroute { vm: m.vm, to: m.to },
                        (3, _) => EvacAction::Install { vm: m.vm, to: m.to },
                        (4, _) => EvacAction::Thaw { vm: m.vm, to: m.to },
                        // Drained chains have no freeze window and no
                        // address reroute.
                        _ => continue,
                    };
                    let id = steps.len();
                    let deps = last_of_chain[chain].into_iter().collect();
                    steps.push(EvacStep {
                        id,
                        wave,
                        action,
                        deps,
                    });
                    last_of_chain[chain] = Some(id);
                }
            }
        }
        // Scale-to-zero tail: every retirement waits for every chain.
        let chain_tails: Vec<usize> = last_of_chain.iter().filter_map(|t| *t).collect();
        let mut retire_sorted: Vec<NsmId> = retire.to_vec();
        retire_sorted.sort();
        retire_sorted.dedup();
        for nsm in retire_sorted {
            let id = steps.len();
            steps.push(EvacStep {
                id,
                wave: waves,
                action: EvacAction::RetireShare { nsm },
                deps: chain_tails.clone(),
            });
        }
        Ok(EvacPlan {
            host,
            pace,
            moves: moves.to_vec(),
            steps,
        })
    }

    /// Waves in the plan (chain waves plus the retirement tail).
    pub fn waves(&self) -> usize {
        self.steps.last().map(|s| s.wave + 1).unwrap_or(0)
    }
}

/// What happened to one plan step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepStatus {
    /// Not executed yet.
    Pending,
    /// Executed successfully.
    Done,
    /// Execution failed (the plan is rolling back).
    Failed,
    /// Executed, then unwound by the rollback.
    Reverted,
}

/// One entry of the serializable plan log.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlanEventKind {
    /// The plan was admitted and execution begins.
    PlanStarted {
        /// The evacuating host.
        host: HostId,
        /// Total steps compiled.
        steps: u32,
        /// Total waves (including the retirement tail).
        waves: u32,
    },
    /// A step began executing.
    ActionStarted {
        /// The step id.
        step: u32,
    },
    /// A step completed.
    ActionDone {
        /// The step id.
        step: u32,
    },
    /// A step failed; rollback follows.
    ActionFailed {
        /// The step id.
        step: u32,
        /// [`NkError::code`] of the failure.
        code: u32,
    },
    /// A completed step was unwound.
    ActionReverted {
        /// The step id.
        step: u32,
    },
    /// Every step completed; the evacuation is final.
    PlanCommitted {
        /// The evacuated host.
        host: HostId,
    },
    /// The rollback finished; the cluster is back in its pre-plan state.
    PlanRolledBack {
        /// The host that kept its VMs.
        host: HostId,
        /// Steps unwound.
        reverted: u32,
    },
}

/// A [`PlanEventKind`] stamped with virtual time, placement epoch and a
/// per-plan sequence number. The log is coordinator-only (plans never run
/// concurrently with each other), so merging it into a cluster-wide control
/// view stays deterministic at any thread count.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanEvent {
    /// Virtual time of the event.
    pub at_ns: u64,
    /// Placement epoch the event belongs to.
    pub epoch: u64,
    /// Position in this plan's log.
    pub seq: u32,
    /// What happened.
    pub kind: PlanEventKind,
}

/// Execution bookkeeping of one plan: per-step status, completion order and
/// the event log. The executor drives it: [`PlanRun::started`] /
/// [`PlanRun::done`] around each action, [`PlanRun::failed`] on the first
/// error — which returns the rollback worklist — then
/// [`PlanRun::reverted`] per unwound step and one of
/// [`PlanRun::committed`] / [`PlanRun::rolled_back`] to close the log.
#[derive(Clone, Debug)]
pub struct PlanRun {
    plan: EvacPlan,
    status: Vec<StepStatus>,
    /// Step ids in completion order (the rollback runs this backwards).
    completed: Vec<usize>,
    events: Vec<PlanEvent>,
    seq: u32,
}

impl PlanRun {
    /// Admit a compiled plan and log `PlanStarted`.
    pub fn new(plan: EvacPlan, at_ns: u64, epoch: u64) -> Self {
        let mut run = PlanRun {
            status: vec![StepStatus::Pending; plan.steps.len()],
            completed: Vec::new(),
            events: Vec::new(),
            seq: 0,
            plan,
        };
        let kind = PlanEventKind::PlanStarted {
            host: run.plan.host,
            steps: run.plan.steps.len() as u32,
            waves: run.plan.waves() as u32,
        };
        run.push(kind, at_ns, epoch);
        run
    }

    /// The plan under execution.
    pub fn plan(&self) -> &EvacPlan {
        &self.plan
    }

    /// A step's current status.
    pub fn status(&self, id: usize) -> StepStatus {
        self.status[id]
    }

    /// True when every dependency of `id` has completed — the DAG gate the
    /// executor checks before running a step.
    pub fn ready(&self, id: usize) -> bool {
        self.plan.steps[id]
            .deps
            .iter()
            .all(|d| self.status[*d] == StepStatus::Done)
    }

    /// Log that step `id` began executing.
    pub fn started(&mut self, id: usize, at_ns: u64, epoch: u64) {
        self.push(
            PlanEventKind::ActionStarted { step: id as u32 },
            at_ns,
            epoch,
        );
    }

    /// Mark step `id` complete.
    pub fn done(&mut self, id: usize, at_ns: u64, epoch: u64) {
        self.status[id] = StepStatus::Done;
        self.completed.push(id);
        self.push(PlanEventKind::ActionDone { step: id as u32 }, at_ns, epoch);
    }

    /// Mark step `id` failed and return the rollback worklist: every
    /// completed step, most recent first.
    pub fn failed(&mut self, id: usize, error: NkError, at_ns: u64, epoch: u64) -> Vec<usize> {
        self.status[id] = StepStatus::Failed;
        self.push(
            PlanEventKind::ActionFailed {
                step: id as u32,
                code: error.code(),
            },
            at_ns,
            epoch,
        );
        self.completed.iter().rev().copied().collect()
    }

    /// Mark a completed step unwound.
    pub fn reverted(&mut self, id: usize, at_ns: u64, epoch: u64) {
        self.status[id] = StepStatus::Reverted;
        self.push(
            PlanEventKind::ActionReverted { step: id as u32 },
            at_ns,
            epoch,
        );
    }

    /// Close the log: every step done, the evacuation is final.
    pub fn committed(&mut self, at_ns: u64, epoch: u64) {
        self.push(
            PlanEventKind::PlanCommitted {
                host: self.plan.host,
            },
            at_ns,
            epoch,
        );
    }

    /// Close the log after a rollback.
    pub fn rolled_back(&mut self, at_ns: u64, epoch: u64) {
        let reverted = self
            .status
            .iter()
            .filter(|s| **s == StepStatus::Reverted)
            .count() as u32;
        self.push(
            PlanEventKind::PlanRolledBack {
                host: self.plan.host,
                reverted,
            },
            at_ns,
            epoch,
        );
    }

    /// The plan event log so far.
    pub fn events(&self) -> &[PlanEvent] {
        &self.events
    }

    /// Consume the run, yielding its event log.
    pub fn into_events(self) -> Vec<PlanEvent> {
        self.events
    }

    fn push(&mut self, kind: PlanEventKind, at_ns: u64, epoch: u64) {
        self.events.push(PlanEvent {
            at_ns,
            epoch,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm(vm: u8, to: u8) -> EvacMove {
        EvacMove {
            vm: VmId(vm),
            to: HostId(to),
            mode: EvacMode::Warm,
        }
    }

    fn drained(vm: u8, to: u8) -> EvacMove {
        EvacMove {
            vm: VmId(vm),
            to: HostId(to),
            mode: EvacMode::Drained,
        }
    }

    /// One warm chain compiles to the five phases in order, each step
    /// depending on its predecessor, plus the retirement tail.
    #[test]
    fn single_warm_chain_compiles_in_phase_order() {
        let plan =
            EvacPlan::compile(HostId(1), &[warm(1, 2)], &[NsmId(1)], 4).expect("plan compiles");
        let actions: Vec<&EvacAction> = plan.steps.iter().map(|s| &s.action).collect();
        assert!(matches!(actions[0], EvacAction::Freeze { vm: VmId(1) }));
        assert!(matches!(
            actions[1],
            EvacAction::Export {
                vm: VmId(1),
                mode: EvacMode::Warm
            }
        ));
        assert!(matches!(actions[2], EvacAction::Reroute { .. }));
        assert!(matches!(actions[3], EvacAction::Install { .. }));
        assert!(matches!(actions[4], EvacAction::Thaw { .. }));
        assert!(matches!(
            actions[5],
            EvacAction::RetireShare { nsm: NsmId(1) }
        ));
        for (i, step) in plan.steps.iter().enumerate() {
            assert_eq!(step.id, i, "ids equal execution order");
            assert!(step.deps.iter().all(|d| *d < i), "deps point backwards");
        }
        assert_eq!(plan.steps[4].deps, vec![3]);
        assert_eq!(plan.steps[5].deps, vec![4], "retire waits for the chain");
        assert_eq!(plan.waves(), 2);
    }

    /// Drained chains skip freeze and reroute; pace bounds the wave width.
    #[test]
    fn pace_partitions_chains_into_waves() {
        let plan = EvacPlan::compile(
            HostId(1),
            &[drained(1, 2), drained(2, 3), drained(3, 2)],
            &[],
            2,
        )
        .expect("plan compiles");
        // Wave 0: two chains × (export, install, thaw); wave 1: one chain.
        assert_eq!(plan.steps.len(), 9);
        assert_eq!(plan.waves(), 2);
        assert!(plan.steps[..6].iter().all(|s| s.wave == 0));
        assert!(plan.steps[6..].iter().all(|s| s.wave == 1));
        assert!(plan
            .steps
            .iter()
            .all(|s| !matches!(s.action, EvacAction::Freeze { .. })));
        // Phase-major inside the wave: both exports before both installs.
        assert!(matches!(
            plan.steps[0].action,
            EvacAction::Export { vm: VmId(1), .. }
        ));
        assert!(matches!(
            plan.steps[1].action,
            EvacAction::Export { vm: VmId(2), .. }
        ));
        assert!(matches!(
            plan.steps[2].action,
            EvacAction::Install { vm: VmId(1), .. }
        ));
    }

    /// Invalid plans are refused outright.
    #[test]
    fn invalid_plans_are_rejected() {
        assert_eq!(
            EvacPlan::compile(HostId(1), &[warm(1, 2)], &[], 0),
            Err(NkError::BadConfig),
            "zero pace"
        );
        assert_eq!(
            EvacPlan::compile(HostId(1), &[warm(1, 1)], &[], 1),
            Err(NkError::BadConfig),
            "move targets the evacuating host"
        );
        assert_eq!(
            EvacPlan::compile(HostId(1), &[warm(1, 2), drained(1, 3)], &[], 1),
            Err(NkError::BadConfig),
            "duplicate VM"
        );
    }

    /// The rollback worklist is the completed steps in reverse completion
    /// order — and only those.
    #[test]
    fn failure_yields_reverse_completion_order() {
        let plan = EvacPlan::compile(HostId(1), &[drained(1, 2)], &[NsmId(1)], 1).unwrap();
        let mut run = PlanRun::new(plan, 0, 0);
        assert!(run.ready(0), "first step has no deps");
        assert!(!run.ready(1), "install waits for the export");
        run.started(0, 10, 0);
        run.done(0, 10, 0);
        assert!(run.ready(1));
        run.started(1, 20, 0);
        run.done(1, 20, 0);
        let worklist = run.failed(2, NkError::InvalidState, 30, 0);
        assert_eq!(worklist, vec![1, 0], "reverse completion order");
        run.reverted(1, 40, 0);
        run.reverted(0, 50, 0);
        run.rolled_back(60, 0);
        assert_eq!(run.status(0), StepStatus::Reverted);
        assert_eq!(run.status(2), StepStatus::Failed);
        let last = run.events().last().unwrap();
        assert!(matches!(
            last.kind,
            PlanEventKind::PlanRolledBack { reverted: 2, .. }
        ));
        // seq is strictly increasing — the deterministic merge key.
        for (i, ev) in run.events().iter().enumerate() {
            assert_eq!(ev.seq, i as u32);
        }
    }

    /// Plans and plan events survive a JSON round trip (the log is part of
    /// the serializable record of a run).
    #[test]
    fn plans_and_events_round_trip_through_json() {
        let plan = EvacPlan::compile(
            HostId(1),
            &[warm(1, 2), drained(2, 3)],
            &[NsmId(1), NsmId(2)],
            2,
        )
        .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: EvacPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);

        let mut run = PlanRun::new(plan, 5, 1);
        run.started(0, 6, 1);
        run.done(0, 6, 1);
        run.committed(7, 1);
        for ev in run.events() {
            let json = serde_json::to_string(ev).unwrap();
            let back: PlanEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, *ev);
        }
    }
}
