"""The correctness gate, run after the timed window.

Each check replays part of the window in-process through the program's
own reference paths and demands exact equality:

* every request got an answer (no workload is meant to fail one);
* every plan answer re-scores bit-identically through
  ``evaluate_plan(reuse_aware=True)`` and places every job;
* sampled plan answers equal an in-process multi-start replay
  (``restart_seeds``, then ``solve_workload_request`` per seed, then the
  first-index best);
* answers sharing a fingerprint have identical bodies apart from trace
  ids, cache flags and timings (compared as they arrive, see
  ``loadgen.Recording``);
* sampled ``whatif`` answers equal an in-process ``measure_plan`` on the
  same fast path;
* every sweep point reports ``parity_ok``;
* each session's final plan re-scores bit-identically on the resident
  set the load generator tracked from its acknowledged deltas.

The same replays yield ``plan_quality``: the geometric mean, over
distinct plans, of the returned utility over the utility of the
Algorithm 2 seed (``initial_plan``) for the same request.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.cloud import ClusterSpec, resolve_provider
from repro.cloud.storage import Tier
from repro.core.castpp import CastPlusPlus
from repro.core.plan import TieringPlan
from repro.core.solver import solve_workload_request
from repro.core.utility import evaluate_plan
from repro.experiments.measure import measure_plan
from repro.experiments.runner import ExperimentRunner
from repro.profiler import build_model_matrix
from repro.service.pool import restart_seeds
from repro.workloads.io import job_from_dict, workload_from_dict
from repro.workloads.spec import WorkloadSpec

from loadgen import Recording
from streams import Request

#: Sampled replays per run: each costs a multi-start solve or a simulation.
REPLAYS = 8
#: Distinct plans scored for ``plan_quality`` (seeded sample beyond this):
#: each costs an Algorithm 2 seed plan, up to 0.1 s on 500 jobs.
QUALITY_SAMPLE = 32


class Checker:
    """Replays answers against in-process reference paths."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"check:{seed}")
        self.failures: List[str] = []
        self.ratios: List[float] = []

    def _deployment(self, provider: str, n_vms: int):
        prov = resolve_provider(provider)
        cluster = ClusterSpec(n_vms=n_vms, vm=prov.default_vm)
        return prov, cluster, build_model_matrix(provider=prov, cluster_spec=cluster)

    def rescore(self, what: str, workload: WorkloadSpec, plan_dict: Mapping[str, Any],
                utility: float, provider: str = "google", n_vms: int = 25,
                quality: bool = True) -> None:
        """Re-score ``plan_dict`` on ``workload`` and, with ``quality``,
        record its utility ratio over the Algorithm 2 seed."""
        prov, cluster, matrix = self._deployment(provider, n_vms)
        plan = TieringPlan.from_dict(dict(plan_dict))
        ids = [j.job_id for j in workload.jobs]
        if set(plan.placements) != set(ids):
            self.failures.append(f"{what}: plan does not place exactly the workload's jobs")
            return
        # Plans travel with sorted keys; score them in the workload's job
        # order, the order the server summed in.
        plan = TieringPlan(placements={jid: plan.placements[jid] for jid in ids})
        ev = evaluate_plan(workload, plan, cluster, matrix, prov, reuse_aware=True)
        if ev.utility != utility:
            self.failures.append(
                f"{what}: utility {utility!r} != evaluate_plan {ev.utility!r}")
            return
        if quality:
            seed = CastPlusPlus(cluster_spec=cluster, matrix=matrix,
                                provider=prov).initial_plan(workload)
            base = evaluate_plan(workload, seed, cluster, matrix, prov, reuse_aware=True)
            self.ratios.append(utility / base.utility)

    def plans(self, stream: Sequence[Request], rec: Recording) -> None:
        """Re-score every distinct plan answer; score a sample for quality."""
        # In stream order, not arrival order: the quality sample, and so
        # ``plan_quality``, is then the same on every run of a seed.
        keyed = sorted((rec.first_index[fp], fp) for fp in rec.bodies
                       if stream[rec.first_index[fp]].op == "plan")
        quality = set(self.rng.sample(range(len(keyed)), min(len(keyed), QUALITY_SAMPLE)))
        for pos, (index, fp) in enumerate(keyed):
            body, params = rec.bodies[fp], stream[index].params
            self.rescore(f"plan {index}", workload_from_dict(dict(params["spec"])),
                         body["plan"], body["utility"], params["provider"],
                         params["n_vms"], quality=pos in quality)

    def replay_solves(self, stream: Sequence[Request], rec: Recording) -> None:
        """Multi-start replays of sampled plan answers."""
        done = [s for s in rec.samples if s.ok and s.op == "plan" and s.fingerprint]
        for sample in self.rng.sample(done, min(len(done), REPLAYS)):
            p = stream[sample.index].params
            results = [
                solve_workload_request(
                    p["spec"], provider=p["provider"], n_vms=p["n_vms"],
                    iterations=p["iterations"], seed=s, use_castpp=p["use_castpp"],
                    backend=p["backend"], replicas=p["replicas"])
                for s in restart_seeds(p["seed"], p["restarts"])
            ]
            best = results[0]
            for r in results[1:]:
                if r["utility"] > best["utility"]:
                    best = r
            body = rec.bodies[sample.fingerprint]
            if best["plan"] != body["plan"] or best["utility"] != body["utility"]:
                self.failures.append(
                    f"plan {sample.index}: differs from the in-process multi-start replay")

    def replay_whatifs(self, stream: Sequence[Request], rec: Recording) -> None:
        done = [s for s in rec.samples if s.ok and s.op == "whatif" and s.fingerprint]
        for sample in self.rng.sample(done, min(len(done), REPLAYS)):
            p = stream[sample.index].params
            workload = workload_from_dict(dict(p["spec"]))
            prov = resolve_provider(p["provider"])
            plan = TieringPlan.uniform(workload, Tier(p["tier"]))
            with ExperimentRunner(0, fast_path=True) as runner:
                m = measure_plan(workload, plan, ClusterSpec(n_vms=p["n_vms"]), prov,
                                 runner=runner)
            body = rec.bodies[sample.fingerprint]
            got = (body["makespan_s"], body["cost_total_usd"], body["utility"])
            if got != (m.makespan_s, m.cost.total_usd, m.utility):
                self.failures.append(
                    f"whatif {sample.index}: {got!r} != measure_plan "
                    f"{(m.makespan_s, m.cost.total_usd, m.utility)!r}")

    def sweeps(self, stream: Sequence[Request], rec: Recording) -> Tuple[int, int]:
        """Parity of every sweep point; returns (points, warm transfers)."""
        points = warm = 0
        for fp, index in rec.first_index.items():
            if stream[index].op != "sweep":
                continue
            body = rec.bodies[fp]
            bad = [pt["index"] for pt in body["points"] if not pt.get("parity_ok")]
            if not body.get("parity_ok") or bad:
                self.failures.append(f"sweep {index}: points {bad} fail parity")
            points += len(body["points"])
            warm += int(body.get("modes", {}).get("warm", 0))
        return points, warm

    def session(self, opener: Request, opened: Mapping[str, Any],
                deltas: Sequence[Tuple[Request, bool]], closed: Mapping[str, Any]) -> None:
        """Final-plan parity on the resident set tracked from acked deltas."""
        sid = opener.params["session_id"]
        spec = workload_from_dict(dict(opener.params["spec"]))
        self.rescore(f"session {sid} open", spec, opened["plan"], opened["utility"])
        jobs = {j.job_id: j for j in spec.jobs}
        sets = list(spec.reuse_sets)
        for req, ok in deltas:
            if not ok:
                self.failures.append(f"session {sid}: a delta failed; state unknown")
                return
            gone = set(req.params.get("remove", ()))
            if gone:
                jobs = {i: j for i, j in jobs.items() if i not in gone}
                kept = []
                for rs in sets:
                    remaining = rs.job_ids - gone
                    if remaining:
                        kept.append(rs if remaining == rs.job_ids
                                    else replace(rs, job_ids=frozenset(remaining)))
                sets = kept
            for job in req.params.get("add", {}).get("jobs", ()):
                jobs[job["job_id"]] = job_from_dict(dict(job))
        resident = WorkloadSpec(jobs=tuple(jobs.values()), reuse_sets=tuple(sets), name=sid)
        if closed.get("resident_jobs") != len(jobs):
            self.failures.append(
                f"session {sid}: {closed.get('resident_jobs')} resident, tracked {len(jobs)}")
            return
        self.rescore(f"session {sid} close", resident, closed["plan"], closed["utility"])

    @property
    def plan_quality(self) -> float:
        if not self.ratios:
            return 0.0
        return math.exp(sum(math.log(r) for r in self.ratios) / len(self.ratios))


def run_checks(seed: int, stream: Sequence[Request], rec: Recording,
               sessions: Sequence[Tuple[Request, Mapping[str, Any], Mapping[str, Any]]]
               ) -> Dict[str, Any]:
    """Every check for one window; returns failures, quality and sweep counts."""
    checker = Checker(seed)
    # No request of a workload is meant to fail, so one that does is a
    # regression, not noise.
    errors = sorted({s.error for s in rec.samples if not s.ok})
    if errors:
        failed = sum(not s.ok for s in rec.samples)
        checker.failures.append(f"{failed} requests failed: {'; '.join(errors[:3])}")
    checker.failures.extend(rec.mismatches)
    checker.plans(stream, rec)
    checker.replay_solves(stream, rec)
    checker.replay_whatifs(stream, rec)
    points, warm = checker.sweeps(stream, rec)
    by_index = {s.index: s for s in rec.samples}
    for opener, opened, closed in sessions:
        sid = opener.params["session_id"]
        deltas = [(stream[i], by_index[i].ok) for i in sorted(by_index)
                  if stream[i].session == sid]
        checker.session(opener, opened, deltas, closed)
    return {
        "failures": checker.failures,
        "plan_quality": checker.plan_quality,
        "quality_samples": len(checker.ratios),
        "sweep_points": points,
        "sweep_warm": warm,
    }
