"""Analytics workflows: job DAGs with deadlines (paper §3.1.3, §5.2).

A workflow is a directed acyclic graph whose vertices are jobs and
whose edges mean "the output of job *u* is (part of) the input of job
*v*".  Analytics queries compile to such DAGs (the paper cites Oozie),
and tenants attach completion-time deadlines to them; CAST++ optimizes
each workflow for *minimum cost subject to its deadline* (Eq. 8–10).

Two concrete workloads from the paper live here:

* :func:`search_engine_workflow` — the four-job log-analysis DAG of
  Fig. 4 (Grep 250 G → {Pagerank 20 G, Sort 120 G} → Join 120 G);
* :func:`evaluation_workflow_suite` — a 5-workflow / 31-job suite with
  deadlines between 15 and 40 minutes, matching the §5.2 methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError
from .apps import GREP, JOIN, KMEANS, PAGERANK, SORT, AppProfile
from .spec import JobSpec, WorkloadSpec

if TYPE_CHECKING:
    import networkx

__all__ = [
    "Workflow",
    "search_engine_workflow",
    "evaluation_workflow_suite",
]


@dataclass(frozen=True)
class Workflow:
    """A deadline-bound job DAG (``J_w`` in Table 3).

    Attributes
    ----------
    name:
        Workflow id.
    jobs:
        The member jobs.
    edges:
        ``(producer_id, consumer_id)`` pairs; the producer's output
        flows into the consumer's input.
    deadline_s:
        Tenant SLO on makespan (first job start → last job finish).
    """

    name: str
    jobs: Tuple[JobSpec, ...]
    edges: Tuple[Tuple[str, str], ...]
    deadline_s: float

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise WorkloadError(f"{self.name}: non-positive deadline")
        ids = {j.job_id for j in self.jobs}
        if len(ids) != len(self.jobs):
            raise WorkloadError(f"{self.name}: duplicate job ids")
        for u, v in self.edges:
            if u not in ids or v not in ids:
                raise WorkloadError(f"{self.name}: edge ({u},{v}) references unknown job")
            if u == v:
                raise WorkloadError(f"{self.name}: self-loop on {u}")
        # networkx loads with the first workflow, not with the package.
        import networkx as nx

        g = self.graph()
        if not nx.is_directed_acyclic_graph(g):
            cycle = nx.find_cycle(g)
            raise WorkloadError(f"{self.name}: workflow has a cycle: {cycle}")

    # -- graph views ---------------------------------------------------------

    def graph(self) -> "networkx.DiGraph":
        """The DAG as a networkx DiGraph (node = job_id)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(j.job_id for j in self.jobs)
        g.add_edges_from(self.edges)
        return g

    def topological_order(self) -> List[str]:
        """Job ids in a valid execution order (deterministic)."""
        import networkx as nx

        return list(nx.lexicographical_topological_sort(self.graph()))

    def job(self, job_id: str) -> JobSpec:
        """Look up a member job."""
        for j in self.jobs:
            if j.job_id == job_id:
                return j
        raise WorkloadError(f"{self.name}: no job {job_id!r}")

    def predecessors(self, job_id: str) -> List[str]:
        """Producers feeding ``job_id``."""
        return sorted(self.graph().predecessors(job_id))

    def successors(self, job_id: str) -> List[str]:
        """Consumers of ``job_id``'s output."""
        return sorted(self.graph().successors(job_id))

    def roots(self) -> List[str]:
        """Jobs with no producers (read external input)."""
        g = self.graph()
        return sorted(n for n in g.nodes if g.in_degree(n) == 0)

    def critical_path(self, durations: Mapping[str, float]) -> Tuple[List[str], float]:
        """Longest path through the DAG under per-job ``durations``.

        Returns the path (job ids) and its total duration.  Used by the
        deadline checker: with serialized stage execution the makespan
        is the sum over *levels*, but with enough cluster capacity the
        critical path is the binding constraint.
        """
        import networkx as nx

        g = self.graph()
        dist: Dict[str, float] = {}
        prev: Dict[str, Optional[str]] = {}
        for node in nx.topological_sort(g):
            best, arg = 0.0, None
            for p in g.predecessors(node):
                if dist[p] > best:
                    best, arg = dist[p], p
            dist[node] = best + durations[node]
            prev[node] = arg
        end = max(dist, key=lambda n: dist[n])
        path = [end]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path, dist[end]

    @property
    def n_jobs(self) -> int:
        """Number of member jobs."""
        return len(self.jobs)

    def as_workload(self) -> WorkloadSpec:
        """View the workflow's jobs as a plain workload (no reuse sets)."""
        return WorkloadSpec(jobs=self.jobs, name=self.name)


def search_engine_workflow(deadline_s: float = 8000.0) -> Workflow:
    """Fig. 4's typical search-engine log-analysis workflow.

    ``Grep 250G`` feeds both ``Pagerank 20G`` and ``Sort 120G``, whose
    outputs combine in ``Join 120G``.  Pagerank's output (386 MB of
    page ids) is negligible next to Sort's, as the paper notes.  The
    hypothetical deadline in Fig. 4(b) is 8 000 seconds.
    """
    grep = JobSpec(job_id="grep-250g", app=GREP, input_gb=250.0)
    pagerank = JobSpec(job_id="pagerank-20g", app=PAGERANK, input_gb=20.0)
    sort = JobSpec(job_id="sort-120g", app=SORT, input_gb=120.0)
    join = JobSpec(job_id="join-120g", app=JOIN, input_gb=120.0)
    return Workflow(
        name="search-engine-log-analysis",
        jobs=(grep, pagerank, sort, join),
        edges=(
            ("grep-250g", "pagerank-20g"),
            ("grep-250g", "sort-120g"),
            ("pagerank-20g", "join-120g"),
            ("sort-120g", "join-120g"),
        ),
        deadline_s=deadline_s,
    )


def evaluation_workflow_suite(
    rng: Optional[np.random.Generator] = None,
) -> List[Workflow]:
    """The §5.2 deadline suite: 5 workflows, 31 jobs, longest has 9.

    The paper sets deadlines between 15 and 40 minutes "based on the
    job input sizes and the job types"; our simulated substrate runs
    roughly 6x faster in absolute terms, so the deadlines here are the
    paper's, scaled to preserve their *relative position* between the
    configurations: loose enough for a well-planned deployment, tight
    enough that persHDD/objStore plans miss everywhere, persSSD misses
    the two largest workflows, and an ephSSD plan trips over its
    staging on the CPU-heavy one (the Fig. 9 regime).

    Structures: one 9-job pipeline-with-fan-in, one 8-job diamond
    chain, two 5-job trees and one 4-job chain (31 jobs total), all
    built from the Table 2 applications with bin-5/6-scale inputs.
    """
    if rng is None:
        rng = np.random.default_rng(59)

    def chain(name: str, specs: Sequence[Tuple[str, AppProfile, float]],
              extra_edges: Sequence[Tuple[int, int]] = (),
              skip_chain: Sequence[int] = ()) -> Tuple[Tuple[JobSpec, ...], Tuple[Tuple[str, str], ...]]:
        jobs = tuple(
            JobSpec(job_id=f"{name}-{i}-{app.name}", app=app, input_gb=gb)
            for i, (suffix, app, gb) in enumerate(specs)
        )
        edges = [
            (jobs[i].job_id, jobs[i + 1].job_id)
            for i in range(len(jobs) - 1)
            if i not in skip_chain
        ]
        edges += [(jobs[a].job_id, jobs[b].job_id) for a, b in extra_edges]
        return jobs, tuple(edges)

    wfs: List[Workflow] = []

    # W1: 9-job pipeline with a fan-out/fan-in in the middle.
    jobs, edges = chain(
        "w1",
        [
            ("a", GREP, 150.0), ("b", SORT, 100.0), ("c", JOIN, 80.0),
            ("d", GREP, 120.0), ("e", SORT, 90.0), ("f", PAGERANK, 20.0),
            ("g", JOIN, 100.0), ("h", SORT, 60.0), ("i", JOIN, 70.0),
        ],
        extra_edges=[(2, 5), (5, 8)],
    )
    wfs.append(Workflow(name="w1-pipeline9", jobs=jobs, edges=edges, deadline_s=450.0))

    # W2: 8-job double-diamond.
    jobs, edges = chain(
        "w2",
        [
            ("a", GREP, 200.0), ("b", SORT, 120.0), ("c", PAGERANK, 25.0),
            ("d", JOIN, 110.0), ("e", GREP, 90.0), ("f", SORT, 80.0),
            ("g", KMEANS, 40.0), ("h", JOIN, 90.0),
        ],
        extra_edges=[(0, 2), (2, 3), (4, 6), (6, 7)],
        skip_chain=(1, 5),
    )
    wfs.append(Workflow(name="w2-diamond8", jobs=jobs, edges=edges, deadline_s=342.0))

    # W3/W4: 5-job trees (root fans out to two branches that re-join).
    for k, (root_gb, deadline_s) in enumerate([(160.0, 300.0), (130.0, 240.0)]):
        name = f"w{3 + k}"
        jobs, edges = chain(
            name,
            [
                ("a", GREP, root_gb), ("b", SORT, root_gb * 0.6),
                ("c", PAGERANK, 20.0), ("d", JOIN, root_gb * 0.5),
                ("e", SORT, root_gb * 0.4),
            ],
            extra_edges=[(0, 2), (2, 3)],
            skip_chain=(),
        )
        wfs.append(
            Workflow(name=f"{name}-tree5", jobs=jobs, edges=edges,
                     deadline_s=deadline_s)
        )

    # W5: 4-job chain (small, tight deadline).
    jobs, edges = chain(
        "w5",
        [("a", GREP, 100.0), ("b", SORT, 70.0), ("c", JOIN, 60.0), ("d", SORT, 40.0)],
    )
    wfs.append(Workflow(name="w5-chain4", jobs=jobs, edges=edges, deadline_s=156.0))

    total = sum(w.n_jobs for w in wfs)
    assert total == 31, f"suite should have 31 jobs, has {total}"
    return wfs
