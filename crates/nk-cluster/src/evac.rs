//! Executing move plans: the mechanism half of [`nk_ctrl::evacuate`], and
//! the one move engine of the cluster.
//!
//! Every VM migration is an [`EvacPlan`]. [`Cluster::plan_evacuation`]
//! surveys a host and compiles its clear-out: one move per homed VM (warm
//! when the share-exclusivity guard allows, drained otherwise), a
//! destination chosen least-loaded, and the emptied source shares queued
//! for scale-to-zero at the tail. [`Cluster::migrate_vm`] and
//! [`Cluster::migrate_vm_warm`] compile a one-chain plan for a single VM.
//! Both run on one runner, which drives the plan step by step —
//! dependency-ordered, `pace` VM chains per wave, one shared freeze window
//! per wave of warm chains — records one phase window per step and keeps
//! the serializable [`PlanEvent`] log (evacuations save it).
//!
//! The contract that makes a move safe to attempt is *atomicity by
//! rollback*: no cluster event is emitted and no summary counter moves
//! until the whole plan has committed, and any mid-plan failure unwinds
//! every completed action in reverse completion order (thaw ↔ re-freeze,
//! install ↔ re-export, reroute ↔ route restore, export ↔ re-import,
//! freeze ↔ thaw, retire ↔ revive). After a rollback the cluster's
//! placement, routing table and event digest are byte-identical to the
//! pre-plan state — the property the fault-injection tests pin for every
//! kind of move, at any `NK_CLUSTER_THREADS` value.

use crate::cluster::{ActiveDrain, Cluster};
use nk_ctrl::{EvacAction, EvacMode, EvacMove, EvacPlan, PlanEvent, PlanRun};
use nk_obs::{FreezeReason, MigrationPhase, ObsEventKind, PhaseWindow};
use nk_types::addr::{host_prefix, HOST_PREFIX_MASK};
use nk_types::{
    ClusterAction, ControlEvent, HostId, NkError, NkResult, NsmId, VmExport, VmId, VmWarmExport,
};
use std::collections::BTreeMap;

/// Upper bound on mini-steps per freeze window. The window
/// normally closes in two or three steps (one wire round trip plus a
/// quiescence check); a connection that never goes quiet — a peer streaming
/// into the VM nonstop — is cut at the bound and recovers through TCP
/// retransmission.
const MAX_FREEZE_STEPS: usize = 16;

/// What the fault injector does to an in-flight evacuation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvacFaultKind {
    /// The step itself fails (as if the mechanism refused) without touching
    /// any state — the pure rollback trigger.
    FailAction,
    /// An NSM crashes on some host just before the step runs.
    CrashNsm {
        /// The host whose NSM dies.
        host: HostId,
        /// The NSM to crash.
        nsm: NsmId,
    },
    /// A whole host dies just before the step runs.
    KillHost(HostId),
}

/// A scripted fault: fires immediately before the step with id
/// [`EvacFault::before_step`] executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvacFault {
    /// The step the fault precedes.
    pub before_step: usize,
    /// What happens.
    pub kind: EvacFaultKind,
}

/// The outcome of one evacuation attempt.
#[derive(Clone, Debug)]
pub struct EvacReport {
    /// The plan that was executed (or rolled back).
    pub plan: EvacPlan,
    /// The plan's event log, in order.
    pub events: Vec<PlanEvent>,
    /// True when every step completed and the evacuation is final.
    pub committed: bool,
    /// VMs moved off the host (0 on rollback).
    pub moved: u32,
    /// Warm moves among them.
    pub warm: u32,
    /// Drained moves among them.
    pub drained: u32,
    /// The step that failed, when one did.
    pub failed_step: Option<usize>,
    /// The failure, when one occurred.
    pub error: Option<NkError>,
}

/// One entry of the merged cluster-wide control log: a host control event
/// or a coordinator-side plan event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControlLogEntry {
    /// A control event from one host's own log.
    Host(HostId, ControlEvent),
    /// A plan event from an evacuation run.
    Plan(PlanEvent),
}

/// Execution scratch state: the exports and route edits each completed step
/// produced, kept so its revert can undo exactly what was done. The warm
/// journal doubles as a recovery record — when a destination dies after the
/// install, the journaled export is what the rollback re-installs at the
/// source.
#[derive(Default)]
struct EvacExec {
    warm_exports: BTreeMap<VmId, VmWarmExport>,
    drained_exports: BTreeMap<VmId, VmExport>,
    reroutes: BTreeMap<VmId, Vec<(u32, Option<u32>)>>,
    retired: Vec<NsmId>,
}

/// What [`Cluster::run_plan`] hands back to the caller that reports it.
pub(crate) struct PlanOutcome {
    /// The plan's event log, closed by `PlanCommitted` or `PlanRolledBack`.
    pub(crate) events: Vec<PlanEvent>,
    /// The step that failed and why; `None` when the plan committed.
    pub(crate) failure: Option<(usize, NkError)>,
    /// Connections the plan's warm moves exported (meaningful on commit).
    pub(crate) conns: u64,
    /// Source shares the plan scaled to zero (empty after a rollback).
    pub(crate) retired: Vec<NsmId>,
}

impl Cluster {
    /// Survey `host` and compile its evacuation into an [`EvacPlan`]:
    /// every VM homed there gets a move — warm when the share-exclusivity
    /// guard allows (the VM is its source NSM's only tenant and owns all of
    /// its pinned connections), drained otherwise — onto the alive host
    /// currently carrying the fewest VMs (planned moves included, ties by
    /// id). The moves' source shares are queued for scale-to-zero at the
    /// plan tail. Fails with [`NkError::NotFound`] for an unknown host and
    /// [`NkError::NoNsm`] when some VM has no viable destination.
    pub fn plan_evacuation(&self, host: HostId, pace: usize) -> NkResult<EvacPlan> {
        self.hosts.get(&host).ok_or(NkError::NotFound)?;
        let vms: Vec<VmId> = self
            .vm_home
            .iter()
            .filter(|(_, h)| **h == host)
            .map(|(vm, _)| *vm)
            .collect();
        let mut planned: BTreeMap<HostId, usize> = BTreeMap::new();
        let mut moves = Vec::new();
        let mut retire = Vec::new();
        for vm in vms {
            let to = self
                .hosts
                .iter()
                .filter(|(id, h)| **id != host && !h.has_vm(vm))
                .filter(|(id, _)| self.pick_destination_nsm(**id).is_ok())
                .map(|(id, _)| {
                    let homed = self.vm_home.values().filter(|h| **h == *id).count();
                    (homed + planned.get(id).copied().unwrap_or(0), *id)
                })
                .min()
                .map(|(_, id)| id)
                .ok_or(NkError::NoNsm)?;
            *planned.entry(to).or_insert(0) += 1;
            let (from_nsm, warm) = self.warm_source(host, vm)?;
            moves.push(EvacMove {
                vm,
                to,
                mode: if warm {
                    EvacMode::Warm
                } else {
                    EvacMode::Drained
                },
            });
            retire.push(from_nsm);
        }
        EvacPlan::compile(host, &moves, &retire, pace)
    }

    /// Plan and execute the evacuation of `host` with `pace` VM chains per
    /// wave. Returns the report; a mid-plan failure is *not* an `Err` —
    /// the plan rolls back cleanly and the report records which step failed
    /// (`Err` is reserved for refusing to plan at all).
    pub fn evacuate_host(&mut self, host: HostId, pace: usize) -> NkResult<EvacReport> {
        self.evacuate_host_with_faults(host, pace, &[])
    }

    /// [`Cluster::evacuate_host`] with a scripted fault surface: each
    /// [`EvacFault`] fires immediately before its step executes. The
    /// rollback contract holds under every fault kind — completed actions
    /// unwind in reverse completion order, best-effort where a dead host
    /// makes the exact inverse impossible (its journaled exports re-install
    /// at the source either way).
    pub fn evacuate_host_with_faults(
        &mut self,
        host: HostId,
        pace: usize,
        faults: &[EvacFault],
    ) -> NkResult<EvacReport> {
        let plan = self.plan_evacuation(host, pace)?;
        self.stats.evac_plans += 1;
        let outcome = self.run_plan(&plan, faults);
        let committed = outcome.failure.is_none();
        let (warm, drained) = plan
            .moves
            .iter()
            .fold((0u32, 0u32), |(w, d), m| match m.mode {
                EvacMode::Warm => (w + 1, d),
                EvacMode::Drained => (w, d + 1),
            });
        if committed {
            self.stats.warm_migrations += u64::from(warm);
            self.stats.conns_transplanted += outcome.conns;
            self.stats.migrations += u64::from(drained);
            self.stats.shares_retired += outcome.retired.len() as u64;
            self.stats.evac_commits += 1;
            self.push_event(ClusterAction::HostEvacuated {
                host,
                vms: plan.moves.len() as u32,
                warm,
                drained,
            });
            for nsm in &outcome.retired {
                self.push_event(ClusterAction::ScaleToZero { host, nsm: *nsm });
            }
        } else {
            self.stats.evac_rollbacks += 1;
        }
        self.plan_events.extend(outcome.events.iter().copied());
        // Mirror the plan's event log into the recorder ring, then — on a
        // rollback — trip the dump-on-fault trigger *after* the rollback
        // events landed, so the frozen ring ends exactly at the trigger.
        for event in &outcome.events {
            self.obs
                .record_event(event.at_ns, event.epoch, ObsEventKind::Plan(event.kind));
        }
        if !committed {
            self.obs.freeze(
                self.now_ns,
                self.epoch,
                FreezeReason::PlanRolledBack { host },
            );
        }
        Ok(EvacReport {
            plan,
            events: outcome.events,
            committed,
            moved: if committed { warm + drained } else { 0 },
            warm: if committed { warm } else { 0 },
            drained: if committed { drained } else { 0 },
            failed_step: outcome.failure.map(|(id, _)| id),
            error: outcome.failure.map(|(_, e)| e),
        })
    }

    /// The move engine, for an evacuation and a single migration alike: run
    /// `plan` in step order, firing each of `faults` just before its step.
    /// Every step records one phase window; the first failure unwinds the
    /// completed steps in reverse completion order. Emits no cluster event
    /// and moves no summary counter bar the freeze mini-steps: reporting a
    /// committed plan is the caller's job.
    pub(crate) fn run_plan(&mut self, plan: &EvacPlan, faults: &[EvacFault]) -> PlanOutcome {
        let mut run = PlanRun::new(plan.clone(), self.now_ns, self.epoch);
        let mut exec = EvacExec::default();
        // Freeze steps of the current wave whose window is still open. No
        // virtual time passes between them and the wave's wire drain, so
        // their windows span exactly that drain — or, when a failure comes
        // first, close zero-width right there.
        let mut frozen: Vec<(usize, VmId)> = Vec::new();
        let mut failure: Option<(usize, NkError)> = None;
        for step in 0..plan.steps.len() {
            debug_assert!(run.ready(step), "steps execute in dependency order");
            let mut forced_failure = false;
            for fault in faults.iter().filter(|f| f.before_step == step) {
                match fault.kind {
                    EvacFaultKind::FailAction => forced_failure = true,
                    EvacFaultKind::CrashNsm { host, nsm } => {
                        if let Some(h) = self.hosts.get_mut(&host) {
                            let _ = h.crash_nsm(nsm);
                        }
                    }
                    EvacFaultKind::KillHost(h) => {
                        let _ = self.kill_host(h);
                    }
                }
            }
            // One freeze window per wave, opened at the wave's first warm
            // export: mini-steps drain the wire for every warm VM of the
            // wave at once, so the handovers share the pause.
            let warm_export = matches!(
                plan.steps[step].action,
                EvacAction::Export {
                    mode: EvacMode::Warm,
                    ..
                }
            );
            if warm_export && !forced_failure && !frozen.is_empty() {
                let start = self.now_ns;
                let vms: Vec<VmId> = frozen.iter().map(|(_, vm)| *vm).collect();
                self.run_freeze_window(plan.host, &vms);
                for (id, _) in frozen.drain(..) {
                    self.record_evac_phase(plan, id, start, true);
                }
            }
            run.started(step, self.now_ns, self.epoch);
            let step_start = self.now_ns;
            let result = if forced_failure {
                Err(NkError::InvalidState)
            } else {
                self.execute_evac_step(plan, step, &mut exec)
            };
            match (plan.steps[step].action, result) {
                (EvacAction::Freeze { vm }, Ok(())) => frozen.push((step, vm)),
                (_, Ok(())) => self.record_evac_phase(plan, step, step_start, true),
                (_, Err(_)) => {
                    for (id, _) in frozen.drain(..) {
                        self.record_evac_phase(plan, id, step_start, true);
                    }
                    self.record_evac_phase(plan, step, step_start, false);
                }
            }
            match result {
                Ok(()) => run.done(step, self.now_ns, self.epoch),
                Err(e) => {
                    let worklist = run.failed(step, e, self.now_ns, self.epoch);
                    for id in worklist {
                        self.revert_evac_step(plan, id, &mut exec);
                        run.reverted(id, self.now_ns, self.epoch);
                    }
                    failure = Some((step, e));
                    break;
                }
            }
        }
        if failure.is_none() {
            run.committed(self.now_ns, self.epoch);
        } else {
            run.rolled_back(self.now_ns, self.epoch);
        }
        PlanOutcome {
            events: run.into_events(),
            failure,
            conns: exec
                .warm_exports
                .values()
                .map(|e| e.conns.len() as u64)
                .sum(),
            retired: exec.retired,
        }
    }

    /// Kill a host outright: its instance drops, its trunk route leaves the
    /// ToR, every VM homed there loses its home and every drain off it is
    /// abandoned. The fault injector's coarsest lever.
    pub fn kill_host(&mut self, host: HostId) -> NkResult<()> {
        self.hosts.remove(&host).ok_or(NkError::NotFound)?;
        self.tor.remove_route(host_prefix(host), HOST_PREFIX_MASK);
        self.vm_home.retain(|_, h| *h != host);
        self.drains.retain(|d| d.from != host);
        self.prev_ledgers.retain(|(h, _), _| *h != host);
        self.prev_uplink.remove(&host);
        self.prev_vm_bytes.retain(|(h, _), _| *h != host);
        self.stats.hosts_killed += 1;
        self.push_event(ClusterAction::HostKilled { host });
        // Dump-on-fault: freeze the recorder with the kill as the last
        // captured event, preserving the ring exactly as it was when the
        // host died.
        self.obs
            .freeze(self.now_ns, self.epoch, FreezeReason::HostKilled { host });
        Ok(())
    }

    /// Every plan event recorded by evacuation runs so far, in execution
    /// order.
    pub fn plan_events(&self) -> &[PlanEvent] {
        &self.plan_events
    }

    /// Routes currently installed at the ToR (trunks' block routes plus
    /// warm-migration `/32` detours) — the invariant the rollback tests
    /// compare.
    pub fn tor_routes(&self) -> usize {
        self.tor.routes()
    }

    /// The cluster-wide control log: every host's control events merged
    /// with the coordinator's plan events, ordered by
    /// `(epoch, host-before-plan, host id, position-in-log)`. Every
    /// component of the key is replay-stable, so the merged view — like
    /// [`Cluster::control_events`] — is identical at any thread count.
    pub fn control_log(&self) -> Vec<ControlLogEntry> {
        let mut merged: Vec<(u64, u8, u64, u64, ControlLogEntry)> = Vec::new();
        for (id, host) in &self.hosts {
            for (seq, event) in host.control_events().iter().enumerate() {
                merged.push((
                    event.epoch,
                    0,
                    u64::from(id.0),
                    seq as u64,
                    ControlLogEntry::Host(*id, *event),
                ));
            }
        }
        for (seq, event) in self.plan_events.iter().enumerate() {
            merged.push((event.epoch, 1, 0, seq as u64, ControlLogEntry::Plan(*event)));
        }
        merged.sort_by_key(|&(epoch, rank, host, seq, _)| (epoch, rank, host, seq));
        merged.into_iter().map(|(_, _, _, _, e)| e).collect()
    }

    /// Drive the shared freeze window of one wave: mini-steps (no control
    /// epochs, no drains, no events) until every warm VM of the wave is
    /// wire-quiet on two consecutive checks, bounded by
    /// [`MAX_FREEZE_STEPS`]. The exit condition deliberately ignores other
    /// tenants' traffic: a busy neighbor must not stretch the handover.
    fn run_freeze_window(&mut self, host: HostId, vms: &[VmId]) {
        let freeze_dt = (2 * self.cfg.uplink_latency_us * 1_000).max(200_000);
        let mut quiet_streak = 0;
        for _ in 0..MAX_FREEZE_STEPS {
            let all_quiet = self
                .hosts
                .get(&host)
                .is_some_and(|h| vms.iter().all(|vm| h.vm_wire_quiet(*vm)));
            if all_quiet {
                quiet_streak += 1;
                if quiet_streak >= 2 {
                    break;
                }
            } else {
                quiet_streak = 0;
            }
            self.freeze_ministep(freeze_dt);
        }
    }

    /// Record the phase window of one plan step, opened at `start_ns` and
    /// closing now, stamped with the step id. Coordinator actions are
    /// zero-width in virtual time; a Freeze window spans its wave's wire
    /// drain.
    fn record_evac_phase(&mut self, plan: &EvacPlan, step: usize, start_ns: u64, ok: bool) {
        let (vm, phase) = match plan.steps[step].action {
            EvacAction::Freeze { vm } => (Some(vm), MigrationPhase::Freeze),
            EvacAction::Export { vm, .. } => (Some(vm), MigrationPhase::Export),
            EvacAction::Reroute { vm, .. } => (Some(vm), MigrationPhase::Reroute),
            EvacAction::Install { vm, .. } => (Some(vm), MigrationPhase::Install),
            EvacAction::Thaw { vm, .. } => (Some(vm), MigrationPhase::Thaw),
            EvacAction::RetireShare { .. } => (None, MigrationPhase::Retire),
        };
        self.obs.record_phase(PhaseWindow {
            vm,
            phase,
            start_ns,
            end_ns: self.now_ns,
            epoch: self.epoch,
            step: plan.steps[step].id as u32,
            ok,
        });
    }

    /// Undo a Reroute step's detours, newest first: a detour that
    /// replaced an earlier hop's `/32` is re-pointed at the source trunk; a
    /// fresh one is removed outright.
    fn revert_detours(&mut self, routes: &[(u32, Option<u32>)]) {
        for (ip, prior) in routes.iter().rev() {
            match prior {
                Some(via) => {
                    self.tor.add_route_via(*ip, u32::MAX, *via);
                }
                None => {
                    self.tor.remove_route(*ip, u32::MAX);
                }
            }
        }
    }

    /// Execute one plan step. Each arm either completes fully or leaves no
    /// trace (the host-level operations it calls unwind internally), so a
    /// failed step never needs its own revert — only the *completed* steps
    /// before it do.
    fn execute_evac_step(
        &mut self,
        plan: &EvacPlan,
        step: usize,
        exec: &mut EvacExec,
    ) -> NkResult<()> {
        let from = plan.host;
        match plan.steps[step].action {
            EvacAction::Freeze { vm } => self
                .hosts
                .get_mut(&from)
                .ok_or(NkError::NotFound)?
                .freeze_vm(vm),
            EvacAction::Export {
                vm,
                mode: EvacMode::Warm,
            } => {
                let export = self
                    .hosts
                    .get_mut(&from)
                    .ok_or(NkError::NotFound)?
                    .export_vm_warm(vm)?;
                exec.warm_exports.insert(vm, export);
                Ok(())
            }
            EvacAction::Export {
                vm,
                mode: EvacMode::Drained,
            } => {
                let export = self
                    .hosts
                    .get_mut(&from)
                    .ok_or(NkError::NotFound)?
                    .export_vm(vm)?;
                exec.drained_exports.insert(vm, export);
                Ok(())
            }
            EvacAction::Reroute { vm, to } => {
                // A `/32` detour per transplanted address, steering it behind
                // the destination trunk. An address already *outside* the
                // source host's block was detoured by an earlier warm hop:
                // its previous `/32` (via the source trunk) is replaced here
                // and must be *restored* on revert, not deleted — a bare
                // delete would fall it back to its origin host's block
                // route, stranding the connection.
                let export = exec.warm_exports.get(&vm).ok_or(NkError::InvalidState)?;
                let mut detours = Vec::new();
                for ip in export.rerouted_ips() {
                    let prior =
                        (ip & HOST_PREFIX_MASK != host_prefix(from)).then(|| host_prefix(from));
                    if !self.tor.add_route_via(ip, u32::MAX, host_prefix(to)) {
                        self.revert_detours(&detours);
                        return Err(NkError::NotFound);
                    }
                    detours.push((ip, prior));
                }
                exec.reroutes.insert(vm, detours);
                Ok(())
            }
            EvacAction::Install { vm, to } => {
                let to_nsm = self.pick_destination_nsm(to)?;
                let dst = self.hosts.get_mut(&to).ok_or(NkError::NotFound)?;
                if let Some(export) = exec.warm_exports.get(&vm) {
                    dst.import_vm_warm(export, to_nsm)?;
                    // The VM stays frozen on the destination until its Thaw
                    // step: later waves' freeze mini-steps run the whole
                    // datapath and must not tick it early.
                    dst.freeze_vm(vm).expect("just imported");
                } else {
                    let export = exec.drained_exports.get(&vm).ok_or(NkError::InvalidState)?;
                    dst.import_vm(export, to_nsm)?;
                }
                Ok(())
            }
            EvacAction::Thaw { vm, to } => {
                if let Some(export) = exec.drained_exports.get(&vm) {
                    // Drained resume: the home flips and the source-side
                    // drain opens; the drain machinery retires the share.
                    self.vm_home.insert(vm, to);
                    self.drains.push(ActiveDrain {
                        vm,
                        from,
                        nsm: export.from_nsm,
                    });
                } else {
                    self.hosts
                        .get_mut(&to)
                        .ok_or(NkError::NotFound)?
                        .thaw_vm(vm);
                    self.vm_home.insert(vm, to);
                }
                Ok(())
            }
            EvacAction::RetireShare { nsm } => {
                // A share still serving (a drained chain's connections have
                // not emptied yet) simply declines: the regular drain
                // machinery retires it later. Not a failure.
                let src = self.hosts.get_mut(&from).ok_or(NkError::NotFound)?;
                if src.retire_nsm_if_drained(nsm) {
                    exec.retired.push(nsm);
                }
                Ok(())
            }
        }
    }

    /// Undo one *completed* plan step. Best-effort where a killed host
    /// makes the exact inverse impossible — the journaled exports still
    /// re-install at the source, so the surviving side of the cluster
    /// always converges back to the pre-plan placement.
    fn revert_evac_step(&mut self, plan: &EvacPlan, step: usize, exec: &mut EvacExec) {
        let from = plan.host;
        match plan.steps[step].action {
            EvacAction::Freeze { vm } => {
                if let Some(src) = self.hosts.get_mut(&from) {
                    if src.has_vm(vm) {
                        src.thaw_vm(vm);
                    }
                }
            }
            EvacAction::Export {
                vm,
                mode: EvacMode::Warm,
            } => {
                let export = exec.warm_exports.get(&vm).expect("journaled at export");
                if let Some(src) = self.hosts.get_mut(&from) {
                    // Re-importing at the source clears the frozen flag with
                    // the old instance, so the VM resumes serving; the Freeze
                    // revert after this is then a no-op.
                    let _ = src.import_vm_warm(export, export.base.from_nsm);
                }
            }
            EvacAction::Export {
                vm,
                mode: EvacMode::Drained,
            } => {
                if let Some(src) = self.hosts.get_mut(&from) {
                    src.cancel_export(vm);
                }
            }
            EvacAction::Reroute { vm, .. } => {
                let detours = exec.reroutes.remove(&vm).unwrap_or_default();
                self.revert_detours(&detours);
            }
            EvacAction::Install { vm, to } => {
                if let std::collections::btree_map::Entry::Occupied(mut journal) =
                    exec.warm_exports.entry(vm)
                {
                    if let Some(dst) = self.hosts.get_mut(&to) {
                        // Tear the installed state back out of the
                        // destination. The re-export replaces the journal
                        // entry; if the destination died (or refuses), the
                        // journaled export from the original Export step is
                        // still what the Export revert re-installs at the
                        // source — nothing is lost with the host.
                        if let Ok(mut export) = dst.export_vm_warm(vm) {
                            // The re-export names the *destination's* NSM as
                            // its source, but the Export revert re-imports at
                            // the original source share (whose id can differ —
                            // e.g. VM2 lived on source NSM2 and was installed
                            // on destination NSM1). Restore the journaled id
                            // so the VM lands back on its own share.
                            export.base.from_nsm = journal.get().base.from_nsm;
                            journal.insert(export);
                        }
                    }
                } else if let Some(dst) = self.hosts.get_mut(&to) {
                    let _ = dst.retire_vm(vm);
                }
            }
            EvacAction::Thaw { vm, to } => {
                if exec.drained_exports.contains_key(&vm) {
                    self.drains.retain(|d| !(d.vm == vm && d.from == from));
                } else if let Some(dst) = self.hosts.get_mut(&to) {
                    if dst.has_vm(vm) {
                        let _ = dst.freeze_vm(vm);
                    }
                }
                self.vm_home.insert(vm, from);
            }
            EvacAction::RetireShare { nsm } => {
                if let Some(pos) = exec.retired.iter().position(|n| *n == nsm) {
                    exec.retired.remove(pos);
                    if let Some(src) = self.hosts.get_mut(&from) {
                        src.revive_nsm_share(nsm);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nk_ctrl::PlanEventKind;
    use nk_types::{
        ClusterConfig, HostConfig, NsmConfig, SockAddr, SocketApi, SocketId, VmConfig,
        VmToNsmPolicy,
    };

    const SERVER_IP: u32 = 0xC0A8_0001; // outside every host block

    pub(crate) fn empty_host(id: u8) -> HostConfig {
        HostConfig::new()
            .with_host_id(HostId(id))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
    }

    /// Host 1 carries the VMs: each of `exclusive` on its own NSM (warm
    /// eligible), all of `shared` together on one extra NSM (drained only).
    pub(crate) fn evac_host(exclusive: &[u8], shared: &[u8]) -> HostConfig {
        let mut cfg = HostConfig::new().with_host_id(HostId(1));
        let mut map = Vec::new();
        for (i, vm) in exclusive.iter().enumerate() {
            let nsm = NsmId(i as u8 + 1);
            cfg = cfg
                .with_nsm(NsmConfig::kernel(nsm))
                .with_vm(VmConfig::new(VmId(*vm)));
            map.push((VmId(*vm), nsm));
        }
        if !shared.is_empty() {
            let nsm = NsmId(exclusive.len() as u8 + 1);
            cfg = cfg.with_nsm(NsmConfig::kernel(nsm));
            for vm in shared {
                cfg = cfg.with_vm(VmConfig::new(VmId(*vm)));
                map.push((VmId(*vm), nsm));
            }
        }
        cfg.with_mapping(VmToNsmPolicy::Static(map))
    }

    /// Build the cluster, wire the echo server and get every VM on host 1
    /// streaming to it (pinned connections all around). Returns the
    /// server's listener and the guest sockets by VM.
    pub(crate) fn cluster_with_traffic(
        cfg: ClusterConfig,
        vms: &[u8],
    ) -> (Cluster, SocketId, Vec<(VmId, SocketId)>) {
        let mut cluster = Cluster::new(cfg).unwrap();
        let server = cluster.add_remote(SERVER_IP);
        let ls = server.socket();
        server.bind(ls, SockAddr::new(0, 7)).unwrap();
        server.listen(ls, 16).unwrap();
        let mut socks = Vec::new();
        for vm in vms {
            let guest = cluster.guest_on(HostId(1), VmId(*vm)).unwrap();
            let s = guest.socket().unwrap();
            guest.connect(s, SockAddr::new(SERVER_IP, 7)).unwrap();
            socks.push((VmId(*vm), s));
        }
        cluster.run(20, 100_000);
        for (vm, s) in &socks {
            let guest = cluster.guest_on(HostId(1), *vm).unwrap();
            guest.send(*s, b"pinned").unwrap();
        }
        cluster.run(10, 100_000);
        for (vm, _) in &socks {
            assert!(
                cluster.host(HostId(1)).unwrap().vm_pinned(*vm) >= 1,
                "{vm:?} must be pinned before the evacuation"
            );
        }
        (cluster, ls, socks)
    }

    /// Everything a rollback must restore, byte for byte. Collections are
    /// sorted so the comparison is insensitive to config-reinsertion order.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Snapshot {
        homes: Vec<(VmId, HostId)>,
        present: Vec<(HostId, Vec<VmId>)>,
        cores: Vec<(HostId, NsmId, Option<usize>)>,
        frozen: Vec<(HostId, VmId, bool)>,
        draining: Vec<(HostId, Vec<(VmId, NsmId)>)>,
        aliases: Vec<(HostId, Vec<(u32, NsmId)>)>,
        digest: u64,
        routes: usize,
    }

    pub(crate) fn snapshot(cluster: &Cluster) -> Snapshot {
        let mut present = Vec::new();
        let mut cores = Vec::new();
        let mut frozen = Vec::new();
        let mut draining = Vec::new();
        let mut aliases = Vec::new();
        for id in cluster.host_ids() {
            let host = cluster.host(id).unwrap();
            let mut vms: Vec<VmId> = host.config().vms.iter().map(|v| v.id).collect();
            vms.sort();
            for vm in &vms {
                frozen.push((id, *vm, host.vm_frozen(*vm)));
            }
            present.push((id, vms));
            for nsm in host.config().nsms.iter().map(|n| n.id) {
                cores.push((id, nsm, host.nsm_cores(nsm)));
            }
            let mut drains = host.draining_vms();
            drains.sort();
            draining.push((id, drains));
            let mut al = host.warm_aliases();
            al.sort();
            aliases.push((id, al));
        }
        let homes: std::collections::BTreeSet<(VmId, HostId)> = present
            .iter()
            .flat_map(|(_, vms)| vms.iter())
            .filter_map(|vm| cluster.home_of(*vm).map(|h| (*vm, h)))
            .collect();
        Snapshot {
            homes: homes.into_iter().collect(),
            present,
            cores,
            frozen,
            draining,
            aliases,
            digest: cluster.event_digest(),
            routes: cluster.tor_routes(),
        }
    }

    /// A clean multi-VM evacuation: every VM warm-migrates off host 1 in
    /// one paced plan, the source shares scale to zero in the plan tail,
    /// one summary event lands in the cluster log, and the transplanted
    /// connections keep serving from their new homes.
    #[test]
    fn clean_warm_evacuation_moves_every_vm() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1, 2], &[]))
            .with_host(empty_host(2))
            .with_host(empty_host(3));
        let (mut cluster, ls, socks) = cluster_with_traffic(cfg, &[1, 2]);

        let report = cluster.evacuate_host(HostId(1), 2).unwrap();
        assert!(report.committed, "{report:?}");
        assert_eq!((report.moved, report.warm, report.drained), (2, 2, 0));
        assert_eq!(report.failed_step, None);
        // Least-loaded spread: one VM per empty host.
        assert_eq!(cluster.home_of(VmId(1)), Some(HostId(2)));
        assert_eq!(cluster.home_of(VmId(2)), Some(HostId(3)));
        assert!(!cluster.host(HostId(1)).unwrap().has_vm(VmId(1)));
        // Both emptied source shares retired inside the plan.
        assert_eq!(
            cluster.host(HostId(1)).unwrap().nsm_cores(NsmId(1)),
            Some(0)
        );
        assert_eq!(
            cluster.host(HostId(1)).unwrap().nsm_cores(NsmId(2)),
            Some(0)
        );
        let stats = cluster.stats();
        assert_eq!(stats.evac_plans, 1);
        assert_eq!(stats.evac_commits, 1);
        assert_eq!(stats.warm_migrations, 2);
        assert_eq!(stats.shares_retired, 2);
        assert!(cluster.events().iter().any(|e| matches!(
            e.action,
            ClusterAction::HostEvacuated {
                host: HostId(1),
                vms: 2,
                warm: 2,
                drained: 0,
            }
        )));
        assert!(matches!(
            cluster.plan_events().last().unwrap().kind,
            PlanEventKind::PlanCommitted { host: HostId(1) }
        ));
        // One phase window per step, stamped with its id; each warm VM's
        // single Freeze window spans the wave's shared wire drain.
        let phases = cluster.obs_dump().phases;
        let mut ids: Vec<u32> = phases.iter().map(|w| w.step).collect();
        ids.sort();
        assert_eq!(ids, (0..report.plan.steps.len() as u32).collect::<Vec<_>>());
        let freezes: Vec<_> = phases
            .iter()
            .filter(|w| w.phase == MigrationPhase::Freeze)
            .collect();
        assert_eq!(freezes.len(), 2, "{phases:?}");
        assert!(freezes[0].width_ns() > 0);
        assert!(freezes
            .iter()
            .all(|w| w.ok && (w.start_ns, w.end_ns) == (freezes[0].start_ns, freezes[0].end_ns)));

        // The pinned connections came along: same sockets, new hosts, still
        // round-tripping through the restored routes.
        for (vm, s, home) in [
            (VmId(1), socks[0].1, HostId(2)),
            (VmId(2), socks[1].1, HostId(3)),
        ] {
            let guest = cluster.guest_on(home, vm).unwrap();
            assert!(guest.has_socket(s), "{vm:?} keeps its socket");
            guest.send(s, b"after").unwrap();
        }
        cluster.run(20, 100_000);
        let server = cluster.remote_mut(SERVER_IP).unwrap();
        let mut streams = 0;
        while let Ok((conn, _)) = server.accept(ls) {
            let mut got = Vec::new();
            let mut buf = [0u8; 64];
            while let Ok(n) = server.recv(conn, &mut buf) {
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, b"pinnedafter", "byte-contiguous across the evacuation");
            streams += 1;
        }
        assert_eq!(streams, 2);
    }

    /// One way a VM moves: an evacuation of host 1, or a single move to
    /// host 2 through the entry `migrate_vm` / `migrate_vm_warm` call.
    enum Move {
        Evacuate { pace: usize },
        Single { vm: u8, mode: EvacMode },
    }

    /// A move, the cluster it runs on and how many steps it takes.
    struct Case {
        name: &'static str,
        config: fn(usize) -> ClusterConfig,
        vms: &'static [u8],
        mv: Move,
        steps: usize,
    }

    impl Case {
        /// Run the move with `step` failed; a rolled-back plan surfaces as
        /// its error.
        fn run(&self, cluster: &mut Cluster, step: usize) -> NkResult<()> {
            let faults = [EvacFault {
                before_step: step,
                kind: EvacFaultKind::FailAction,
            }];
            match self.mv {
                Move::Evacuate { pace } => {
                    let report = cluster
                        .evacuate_host_with_faults(HostId(1), pace, &faults)
                        .unwrap();
                    if report.committed {
                        return Ok(());
                    }
                    assert_eq!(report.failed_step, Some(step), "{}", self.name);
                    assert_eq!(report.moved, 0);
                    assert!(matches!(
                        report.events.last().unwrap().kind,
                        PlanEventKind::PlanRolledBack { .. }
                    ));
                    Err(report.error.unwrap())
                }
                Move::Single { vm, mode } => {
                    cluster.move_vm(VmId(vm), HostId(1), HostId(2), mode, &faults)
                }
            }
        }
    }

    fn mixed_config(threads: usize) -> ClusterConfig {
        ClusterConfig::new()
            .with_host(evac_host(&[1], &[2, 3]))
            .with_host(empty_host(2))
            .with_host(empty_host(3))
            .with_threads(threads)
    }

    /// VM1 on NSM1 and VM2 on NSM2, both warm; the destinations only have
    /// NSM1, so reverting VM2's install must re-import it on its own
    /// source share, not on the destination's NSM id.
    fn mismatched_config(threads: usize) -> ClusterConfig {
        ClusterConfig::new()
            .with_host(evac_host(&[1, 2], &[]))
            .with_host(empty_host(2))
            .with_host(empty_host(3))
            .with_threads(threads)
    }

    fn single_config(threads: usize) -> ClusterConfig {
        ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2))
            .with_threads(threads)
    }

    /// The acceptance criterion: a fault injected at ANY single action of
    /// ANY kind of move — a mixed warm + drained evacuation, a two-warm
    /// evacuation whose source and destination NSM ids differ, a single
    /// warm move and a single drained move — triggers a full reverse-order
    /// revert, after which placement, per-share cores, freeze flags,
    /// drains, aliases, routes and the event digest are byte-identical to
    /// the pre-move snapshot, at one worker thread and at four.
    #[test]
    fn fault_at_any_action_reverts_byte_identically() {
        let (probe, _, _) = cluster_with_traffic(mixed_config(1), &[1, 2, 3]);
        let mixed = probe.plan_evacuation(HostId(1), 2).unwrap();
        assert!(
            mixed.moves.iter().any(|m| m.mode == EvacMode::Warm)
                && mixed.moves.iter().any(|m| m.mode == EvacMode::Drained),
            "the plan must exercise both chain kinds: {mixed:?}"
        );
        assert!(mixed.steps.len() >= 11, "{mixed:?}");
        let (probe, _, _) = cluster_with_traffic(mismatched_config(1), &[1, 2]);
        let two_warm = probe.plan_evacuation(HostId(1), 2).unwrap();
        assert!(two_warm.moves.iter().all(|m| m.mode == EvacMode::Warm));

        let cases = [
            Case {
                name: "mixed evacuation",
                config: mixed_config,
                vms: &[1, 2, 3],
                mv: Move::Evacuate { pace: 2 },
                steps: mixed.steps.len(),
            },
            Case {
                name: "two-warm evacuation",
                config: mismatched_config,
                vms: &[1, 2],
                mv: Move::Evacuate { pace: 2 },
                steps: two_warm.steps.len(),
            },
            // Freeze, export, reroute, install, thaw, retire the share.
            Case {
                name: "warm move",
                config: single_config,
                vms: &[1],
                mv: Move::Single {
                    vm: 1,
                    mode: EvacMode::Warm,
                },
                steps: 6,
            },
            // Export, install, resume.
            Case {
                name: "drained move",
                config: single_config,
                vms: &[1],
                mv: Move::Single {
                    vm: 1,
                    mode: EvacMode::Drained,
                },
                steps: 3,
            },
        ];
        for case in &cases {
            let name = case.name;
            for threads in [1usize, 4] {
                // A fault past the last step never fires and the move
                // commits, so `steps` is exactly the number of steps run.
                for step in 0..=case.steps {
                    let (mut cluster, _, _) =
                        cluster_with_traffic((case.config)(threads), case.vms);
                    let before = snapshot(&cluster);
                    let result = case.run(&mut cluster, step);
                    if step == case.steps {
                        assert_eq!(result, Ok(()), "{name} threads={threads}: commits");
                        continue;
                    }
                    assert_eq!(
                        result,
                        Err(NkError::InvalidState),
                        "{name} threads={threads} step={step}"
                    );
                    assert_eq!(
                        snapshot(&cluster),
                        before,
                        "{name} threads={threads}: revert after failing step {step} \
                         must restore the pre-move state"
                    );
                    let evacuation = matches!(case.mv, Move::Evacuate { .. });
                    assert_eq!(cluster.stats().evac_rollbacks, u64::from(evacuation));
                }
            }
        }
    }

    /// Killing the destination host mid-plan (before the install) rolls the
    /// evacuation back: the VM is re-installed at the source from its
    /// journaled export and keeps serving, and the host's death is logged.
    #[test]
    fn killing_the_destination_mid_plan_rolls_back() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2));
        let (mut cluster, ls, socks) = cluster_with_traffic(cfg, &[1]);
        let plan = cluster.plan_evacuation(HostId(1), 1).unwrap();
        let install = plan
            .steps
            .iter()
            .find(|s| matches!(s.action, EvacAction::Install { .. }))
            .unwrap()
            .id;

        let report = cluster
            .evacuate_host_with_faults(
                HostId(1),
                1,
                &[EvacFault {
                    before_step: install,
                    kind: EvacFaultKind::KillHost(HostId(2)),
                }],
            )
            .unwrap();
        assert!(!report.committed);
        assert_eq!(report.failed_step, Some(install));
        assert_eq!(report.error, Some(NkError::NotFound));
        assert_eq!(cluster.stats().hosts_killed, 1);
        assert_eq!(cluster.stats().evac_rollbacks, 1);
        assert!(!cluster.host_ids().contains(&HostId(2)));
        assert!(cluster
            .events()
            .iter()
            .any(|e| matches!(e.action, ClusterAction::HostKilled { host: HostId(2) })));

        // Original placement restored; the connection survived the round
        // trip through the journal.
        assert_eq!(cluster.home_of(VmId(1)), Some(HostId(1)));
        assert!(!cluster.host(HostId(1)).unwrap().vm_frozen(VmId(1)));
        let (vm, s) = socks[0];
        let guest = cluster.guest_on(HostId(1), vm).unwrap();
        assert!(guest.has_socket(s));
        guest.send(s, b"revived").unwrap();
        cluster.run(20, 100_000);
        let server = cluster.remote_mut(SERVER_IP).unwrap();
        let (conn, _) = server.accept(ls).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        while let Ok(n) = server.recv(conn, &mut buf) {
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, b"pinnedrevived");
    }

    /// Crashing the destination's NSM mid-plan fails the install with
    /// `NoNsm` and rolls back the same way.
    #[test]
    fn crashing_the_destination_nsm_mid_plan_rolls_back() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2));
        let (mut cluster, _, _) = cluster_with_traffic(cfg, &[1]);
        let plan = cluster.plan_evacuation(HostId(1), 1).unwrap();
        let install = plan
            .steps
            .iter()
            .find(|s| matches!(s.action, EvacAction::Install { .. }))
            .unwrap()
            .id;

        let report = cluster
            .evacuate_host_with_faults(
                HostId(1),
                1,
                &[EvacFault {
                    before_step: install,
                    kind: EvacFaultKind::CrashNsm {
                        host: HostId(2),
                        nsm: NsmId(1),
                    },
                }],
            )
            .unwrap();
        assert!(!report.committed);
        assert_eq!(report.error, Some(NkError::NoNsm));
        // The failed step still records its window, marked failed.
        let failed: Vec<u32> = cluster
            .obs_dump()
            .phases
            .iter()
            .filter(|w| !w.ok)
            .map(|w| w.step)
            .collect();
        assert_eq!(failed, vec![install as u32]);
        assert_eq!(cluster.home_of(VmId(1)), Some(HostId(1)));
        assert!(!cluster.host(HostId(1)).unwrap().vm_frozen(VmId(1)));
        assert!(cluster.host(HostId(1)).unwrap().has_vm(VmId(1)));
    }

    /// Evacuation planning refuses the degenerate cases; executing against
    /// them never starts a plan.
    #[test]
    fn planning_is_refused_without_a_host_or_destination() {
        let cfg = ClusterConfig::new().with_host(evac_host(&[1], &[]));
        let cluster = Cluster::new(cfg).unwrap();
        assert_eq!(
            cluster.plan_evacuation(HostId(9), 1),
            Err(NkError::NotFound)
        );
        // Only one host: nowhere to go (found before pace validation).
        assert_eq!(cluster.plan_evacuation(HostId(1), 1), Err(NkError::NoNsm));
        assert_eq!(cluster.plan_evacuation(HostId(1), 0), Err(NkError::NoNsm));
    }

    /// The merged control log carries both host control events and plan
    /// events, keyed deterministically.
    #[test]
    fn control_log_merges_plan_events_deterministically() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2));
        let (mut cluster, _, _) = cluster_with_traffic(cfg, &[1]);
        let report = cluster.evacuate_host(HostId(1), 1).unwrap();
        assert!(report.committed);
        let log = cluster.control_log();
        let plan_entries: Vec<&PlanEvent> = log
            .iter()
            .filter_map(|e| match e {
                ControlLogEntry::Plan(p) => Some(p),
                ControlLogEntry::Host(..) => None,
            })
            .collect();
        assert_eq!(plan_entries.len(), cluster.plan_events().len());
        // Plan entries appear in log order (seq is strictly increasing).
        for pair in plan_entries.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    /// `kill_host` is a dump-on-fault trigger: the recorder freezes with
    /// the kill as the last captured event, and nothing that happens
    /// afterwards — steps, migrations, their events — leaves a trace.
    #[test]
    fn kill_host_freezes_the_flight_recorder_at_the_trigger() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2))
            .with_host(empty_host(3));
        let (mut cluster, _, _) = cluster_with_traffic(cfg, &[1]);
        assert!(cluster.recorder().frozen().is_none());

        let kill_at = cluster.now_ns();
        cluster.kill_host(HostId(3)).unwrap();
        let info = *cluster
            .recorder()
            .frozen()
            .expect("the kill must freeze the ring");
        assert_eq!(info.at_ns, kill_at);
        assert_eq!(info.reason, FreezeReason::HostKilled { host: HostId(3) });
        let frozen_dump = cluster.obs_dump();
        assert!(
            matches!(
                frozen_dump.events.last().map(|e| &e.kind),
                Some(ObsEventKind::Cluster(ClusterAction::HostKilled { host }))
                    if *host == HostId(3)
            ),
            "the kill itself is the last captured event: {:?}",
            frozen_dump.events
        );

        cluster.run(20, 100_000);
        cluster.migrate_vm(VmId(1), HostId(1), HostId(2)).unwrap();
        cluster.run(20, 100_000);
        assert_eq!(
            cluster.obs_dump(),
            frozen_dump,
            "post-trigger activity must not change the frozen dump"
        );
    }

    /// A rolled-back plan freezes the recorder too, after the rollback's
    /// plan events landed — the frozen ring ends exactly at the trigger.
    #[test]
    fn rollback_freezes_the_flight_recorder_after_its_plan_events() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2));
        let (mut cluster, _, _) = cluster_with_traffic(cfg, &[1]);
        let plan = cluster.plan_evacuation(HostId(1), 1).unwrap();
        let install = plan
            .steps
            .iter()
            .find(|s| matches!(s.action, EvacAction::Install { .. }))
            .unwrap()
            .id;
        let report = cluster
            .evacuate_host_with_faults(
                HostId(1),
                1,
                &[EvacFault {
                    before_step: install,
                    kind: EvacFaultKind::CrashNsm {
                        host: HostId(2),
                        nsm: NsmId(1),
                    },
                }],
            )
            .unwrap();
        assert!(!report.committed);
        let info = cluster
            .recorder()
            .frozen()
            .expect("the rollback must freeze the ring");
        assert_eq!(
            info.reason,
            FreezeReason::PlanRolledBack { host: HostId(1) }
        );
        // Every plan event of the failed run made it into the ring before
        // the freeze, including the rollback tail.
        let dump = cluster.obs_dump();
        let plan_events = dump
            .events
            .iter()
            .filter(|e| matches!(e.kind, ObsEventKind::Plan(_)))
            .count();
        assert_eq!(plan_events, report.events.len(), "{:?}", dump.events);
    }
}
