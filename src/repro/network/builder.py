"""BN construction — Algorithm 1 of the paper.

Two entry points:

* :meth:`BNBuilder.build` — batch construction over a full log history,
  fully vectorized with numpy: group logs by ``(type, value, epoch)`` per
  window, enumerate every user pair of every eligible group with
  repeat/cumsum index arithmetic, reduce the contribution stream over
  ``(u, v)`` keys, then apply one columnar
  :meth:`~repro.network.bn.BehaviorNetwork.add_weights` batch per behavior
  type (a single snapshot-version bump each).
* :meth:`BNBuilder.run_window_jobs` — the periodic jobs of the online BN
  server (Section V), each processing the logs of one just-closed epoch of
  one window.  One call encodes its log slice once and enumerates the
  groups and pairs of all its jobs in one pass, then applies each job's
  contributions as that job's own ``add_weights`` batch, so the network
  ends exactly as if the jobs ran one by one.
  :meth:`BNBuilder.run_window_job` is its one-job call and
  :meth:`BNBuilder.replay` runs a whole history through it.  Running every
  window's jobs over a time range is equivalent to the batch build over the
  same logs, which a test verifies.

Every vectorized write path keeps a pinned ``*_reference`` twin — the
original per-pair Python loops (:meth:`BNBuilder.build_reference`,
:meth:`BNBuilder.run_window_job_reference`,
:meth:`BNBuilder.replay_reference`) — and the test tree asserts
**bit-exact** parity: identical edge sets, weights, and timestamps, down to
the last ulp.  The sequential segment folds that reproduce the loops'
IEEE-754 accumulation order live in :mod:`repro.network.segments`, as does
the overflow-guarded composite keying shared by both paths.

Engineering bound: groups larger than ``max_clique_size`` distinct users are
skipped.  Their pairwise weight would be at most ``1/max_clique_size`` —
negligible under the inverse weight assignment — while the pair count grows
quadratically (a public Wi-Fi can connect thousands of users within a day).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from ..datagen.behavior_types import EDGE_TYPES, BehaviorType
from ..datagen.entities import BehaviorLog
from .bn import DEFAULT_EDGE_TTL, BehaviorNetwork
from .segments import segment_arange, segment_fold_max, segment_fold_sum, sorted_unique_pairs, sorted_unique_triples
from .windows import PAPER_WINDOWS, validate_windows

__all__ = ["BNBuilder"]


def _pair_indices(
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ``i < j`` position pairs for concatenated groups of given sizes.

    Returns ``(first, second, group)``: positions into the concatenated
    member pool plus each pair's group index, in the same order the
    reference's nested ``for i / for j`` loops visit them (group-major,
    then ``i`` ascending, then ``j``).  Each member at local offset ``i``
    of a ``c``-sized group leads ``c - 1 - i`` pairs, so the enumeration is
    two repeat/cumsum ramps — no Python loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    local = segment_arange(counts)
    lead = np.repeat(counts, counts) - 1 - local
    total = int(counts.sum())
    first = np.repeat(np.arange(total, dtype=np.int64), lead)
    second = first + 1 + segment_arange(lead)
    group = np.repeat(
        np.arange(len(counts), dtype=np.int64), counts * (counts - 1) // 2
    )
    return first, second, group


class BNBuilder:
    """Builds and incrementally maintains a :class:`BehaviorNetwork`.

    Parameters
    ----------
    windows:
        Hierarchical time windows ``W`` (strictly increasing).
    edge_types:
        Behavior types that produce edges (defaults to the paper's eight).
    max_clique_size:
        Skip ``(value, epoch)`` groups with more distinct users than this.
    ttl:
        Edge time-to-live passed to the created network (60 days by default).
    origin:
        Time ``t_0`` from which epochs are discretized.
    weighting:
        ``"inverse"`` (the paper's ``1/N`` rule) or ``"uniform"`` (every
        co-occurring pair gets weight 1 — the ablation showing why the
        inverse rule matters for public-resource cliques).
    """

    def __init__(
        self,
        windows: Sequence[float] = PAPER_WINDOWS,
        edge_types: Sequence[BehaviorType] = EDGE_TYPES,
        max_clique_size: int = 100,
        ttl: float = DEFAULT_EDGE_TTL,
        origin: float = 0.0,
        weighting: str = "inverse",
    ) -> None:
        self.windows = validate_windows(windows)
        self.edge_types = tuple(edge_types)
        if max_clique_size < 2:
            raise ValueError("max_clique_size must be at least 2")
        if weighting not in ("inverse", "uniform"):
            raise ValueError("weighting must be 'inverse' or 'uniform'")
        self.max_clique_size = max_clique_size
        self.ttl = ttl
        self.origin = origin
        self.weighting = weighting
        self._type_index = {t: i for i, t in enumerate(self.edge_types)}

    def _share(self, group_size: int) -> float:
        return 1.0 / group_size if self.weighting == "inverse" else 1.0

    def _group_shares(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_share` — per-group pair weight."""
        if self.weighting == "inverse":
            return 1.0 / counts.astype(np.float64)
        return np.ones(len(counts), dtype=np.float64)

    # ------------------------------------------------------------------
    # Shared grouping (vectorized and reference paths)
    # ------------------------------------------------------------------
    def _window_groups(
        self,
        window: float,
        uid_arr: np.ndarray,
        value_codes: np.ndarray,
        time_arr: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Distinct ``(value, epoch, uid)`` triples of one window, grouped.

        Returns ``(members, starts, counts, epochs)``: the distinct users of
        every ``(value, epoch)`` group concatenated in sorted group order
        (uids ascending within a group), each group's slice start/length,
        and each group's epoch index.  A user logging the same value many
        times inside one epoch still counts once toward ``N_{j,s}``.

        Uids and epochs are normalized by their minima before keying, so
        negative epochs (logs before ``origin``) stay exact and the
        composite keys inherit the int64 overflow guard of
        :func:`repro.network.segments.sorted_unique_triples` — adversarially
        large uid/value/epoch spans fall back to a lexicographic unique
        instead of silently wrapping.
        """
        if len(uid_arr) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy(), empty.copy()
        epochs = np.floor((time_arr - self.origin) / window).astype(np.int64)
        e0 = int(epochs.min())
        u0 = int(uid_arr.min())
        g_val, g_eps, g_uid = sorted_unique_triples(
            value_codes, epochs - e0, uid_arr - u0
        )
        boundary = np.r_[True, (g_val[1:] != g_val[:-1]) | (g_eps[1:] != g_eps[:-1])]
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.r_[starts, len(g_uid)])
        return g_uid + u0, starts, counts, g_eps[starts] + e0

    def _enumerate_window_pairs(
        self,
        window: float,
        uid_arr: np.ndarray,
        value_codes: np.ndarray,
        time_arr: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One window's pair contribution stream ``(u, v, weight, ts)``.

        Pairs are emitted in the reference loop order (sorted groups, then
        ``i < j`` over each group's ascending members), with ``u < v``; the
        timestamp of every pair in a group is the group's epoch end.
        """
        members, starts, counts, epochs = self._window_groups(
            window, uid_arr, value_codes, time_arr
        )
        eligible = (counts >= 2) & (counts <= self.max_clique_size)
        sel_starts = starts[eligible]
        sel_counts = counts[eligible]
        pool = members[np.repeat(sel_starts, sel_counts) + segment_arange(sel_counts)]
        first, second, group = _pair_indices(sel_counts)
        share = self._group_shares(sel_counts)
        epoch_end = self.origin + (epochs[eligible] + 1) * window
        return pool[first], pool[second], share[group], epoch_end[group]

    # ------------------------------------------------------------------
    # Batch construction
    # ------------------------------------------------------------------
    def _bucket_by_type(
        self, logs: Iterable[BehaviorLog], bn: BehaviorNetwork
    ) -> dict[BehaviorType, tuple[list[int], list[str], list[float]]]:
        """Split logs into per-type uid/value/time columns, registering nodes.

        Nodes are registered once per distinct user (via a numpy unique over
        the bucketed uid columns) instead of once per log — ``add_node`` is
        idempotent, so the resulting network is the same and the per-log
        Python call disappears from the hot path.
        """
        by_type: dict[BehaviorType, tuple[list[int], list[str], list[float]]] = {
            t: ([], [], []) for t in self.edge_types
        }
        for log in logs:
            bucket = by_type.get(log.btype)
            if bucket is None:
                continue
            bucket[0].append(log.uid)
            bucket[1].append(log.value)
            bucket[2].append(log.timestamp)
        columns = [
            np.asarray(bucket[0], dtype=np.int64)
            for bucket in by_type.values()
            if bucket[0]
        ]
        if columns:
            for uid in np.unique(np.concatenate(columns)).tolist():
                bn.add_node(uid)
        return by_type

    def build(
        self, logs: Iterable[BehaviorLog], bn: BehaviorNetwork | None = None
    ) -> BehaviorNetwork:
        """Construct BN from a full log history (Algorithm 1, vectorized)."""
        if bn is None:
            bn = BehaviorNetwork(ttl=self.ttl)
        for btype, (uids, values, times) in self._bucket_by_type(logs, bn).items():
            if not uids:
                continue
            self._build_type(bn, btype, uids, values, times)
        return bn

    @staticmethod
    def _encode_values(values: list[str]) -> np.ndarray:
        """Integer codes (sorted-unique order) for the value strings."""
        _, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
        return codes.astype(np.int64)

    def _build_type(
        self,
        bn: BehaviorNetwork,
        btype: BehaviorType,
        uids: list[int],
        values: list[str],
        times: list[float],
    ) -> None:
        """Accumulate one behavior type's edges as a single columnar batch.

        The per-window contribution streams are concatenated window-major
        (the reference accumulation order), stably grouped per ``(u, v)``
        pair, and summed with a sequential left-to-right fold, so the batch
        is bit-for-bit the reference dict accumulation.  Timestamps reduce
        by max, clamped at the reference accumulator's ``0.0`` seed.
        """
        uid_arr = np.asarray(uids, dtype=np.int64)
        time_arr = np.asarray(times, dtype=np.float64)
        value_codes = self._encode_values(values)

        chunks = [
            self._enumerate_window_pairs(window, uid_arr, value_codes, time_arr)
            for window in self.windows
        ]
        u = np.concatenate([c[0] for c in chunks])
        if len(u) == 0:
            return
        v = np.concatenate([c[1] for c in chunks])
        w = np.concatenate([c[2] for c in chunks])
        ts = np.concatenate([c[3] for c in chunks])

        order = np.lexsort((v, u))
        su, sv, sw, sts = u[order], v[order], w[order], ts[order]
        boundary = np.r_[True, (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])]
        starts = np.flatnonzero(boundary)
        lengths = np.diff(np.r_[starts, len(su)])
        weights = segment_fold_sum(sw, starts, lengths)
        stamps = np.maximum(segment_fold_max(sts, starts, lengths), 0.0)
        bn.add_weights(su[starts], sv[starts], btype, weights, stamps)

    # ------------------------------------------------------------------
    # Incremental (online BN server) construction
    # ------------------------------------------------------------------
    def _encode_logs(
        self, logs: Iterable[BehaviorLog]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edge-type logs as columns ``(uids, groups, times, group_types)``.

        ``groups[i]`` codes log ``i``'s ``(type, value)`` key; codes number
        distinct keys in first-occurrence order from a dict that lives only
        for this call, and ``group_types[code]`` is the key's index into
        :attr:`edge_types`.  Logs of non-edge types are dropped.
        """
        type_index = self._type_index
        edge_logs = [log for log in logs if log.btype in type_index]
        table: dict[tuple[BehaviorType, str], int] = {}
        # ``len(table)`` is read before setdefault inserts, so a new key
        # gets the next code.
        groups = [
            table.setdefault((log.btype, log.value), len(table)) for log in edge_logs
        ]
        n = len(edge_logs)
        return (
            np.fromiter((log.uid for log in edge_logs), dtype=np.int64, count=n),
            np.asarray(groups, dtype=np.int64),
            np.fromiter(
                (log.timestamp for log in edge_logs), dtype=np.float64, count=n
            ),
            np.asarray([type_index[btype] for btype, _ in table], dtype=np.int64),
        )

    def run_window_jobs(
        self,
        bn: BehaviorNetwork,
        logs: Iterable[BehaviorLog],
        jobs: Sequence[tuple[float, float]],
    ) -> list[int]:
        """Run window jobs ``(window, job_end)`` in order over one log slice.

        Job ``k`` processes the epoch ``(job_end - window, job_end]`` exactly
        as if it ran alone, after jobs ``0..k-1``: the logs are encoded once,
        each job's rows are found with ``searchsorted`` (input order is kept
        inside a job when ``logs`` are not time-sorted), and the groups and
        pairs of all jobs are enumerated in one pass.  Each non-empty job
        then applies its contiguous contribution slice with its own
        :meth:`~repro.network.bn.BehaviorNetwork.add_weights` call, so
        version bumps, pair-creation order, expiry registration and delta
        touches are the per-job ones.  Returns the contributions per job.
        """
        for window, _job_end in jobs:
            if window not in self.windows:
                raise ValueError(f"window {window} is not one of the builder's windows")
        if not jobs:
            return []
        uids, groups, times, group_types = self._encode_logs(logs)
        ends = np.asarray([job_end for _, job_end in jobs], dtype=np.float64)
        lows = ends - np.asarray([window for window, _ in jobs], dtype=np.float64)
        in_order = bool(np.all(times[1:] >= times[:-1]))
        order = None if in_order else np.argsort(times, kind="stable")
        sorted_times = times if order is None else times[order]
        first = np.searchsorted(sorted_times, lows, side="right")
        lengths = np.searchsorted(sorted_times, ends, side="right") - first
        rows = np.repeat(first, lengths) + segment_arange(lengths)
        if order is not None:
            # Back to input order inside each job (jobs stay contiguous).
            rows = order[rows]
            job_of_row = np.repeat(np.arange(len(jobs), dtype=np.int64), lengths)
            rows = rows[np.lexsort((rows, job_of_row))]
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        return self._apply_jobs(bn, uids, groups, group_types, rows, bounds, ends)

    def _apply_jobs(
        self,
        bn: BehaviorNetwork,
        uids: np.ndarray,
        groups: np.ndarray,
        group_types: np.ndarray,
        rows: np.ndarray,
        bounds: np.ndarray,
        ends: np.ndarray,
    ) -> list[int]:
        """Apply jobs whose rows are ``rows[bounds[k]:bounds[k + 1]]``.

        The per-job result is bit-identical to a lone job over those rows:
        nodes register in first-occurrence order, groups are the job's
        distinct ``(type, value)`` keys ranked by first occurrence, members
        ascend inside a group, and the job's contributions share its end as
        their timestamp.
        """
        n_jobs = len(ends)
        contributions = [0] * n_jobs
        if not len(rows):
            return contributions
        job_of_row = np.repeat(
            np.arange(n_jobs, dtype=np.int64), np.diff(bounds)
        )
        row_uids = uids[rows]
        # A user's first row in the job stream is where a lone job would
        # register it; every later add_node call for it would be a no-op.
        _, first_seen = np.unique(row_uids, return_index=True)
        first_seen.sort()
        new_nodes = row_uids[first_seen].tolist()
        node_cuts = np.searchsorted(first_seen, bounds).tolist()

        # Groups are distinct (job, type, value) keys ranked by first
        # occurrence: job-major, then each job's dict-insertion order.
        n_groups = len(group_types)
        key = job_of_row * n_groups + groups[rows]
        uniq, first_idx, inverse = np.unique(
            key, return_index=True, return_inverse=True
        )
        fo_order = np.argsort(first_idx)
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[fo_order] = np.arange(len(uniq), dtype=np.int64)
        keys_fo = uniq[fo_order]

        u0 = int(row_uids.min())
        g_gid, g_uid = sorted_unique_pairs(rank[inverse], row_uids - u0)
        starts = np.flatnonzero(np.concatenate(([True], g_gid[1:] != g_gid[:-1])))
        counts = np.diff(starts, append=len(g_gid))
        eligible = (counts >= 2) & (counts <= self.max_clique_size)
        sel_starts = starts[eligible]
        sel_counts = counts[eligible]
        sel_keys = keys_fo[g_gid[sel_starts]]

        pool = g_uid[np.repeat(sel_starts, sel_counts) + segment_arange(sel_counts)] + u0
        first, second, group = _pair_indices(sel_counts)
        u, v = pool[first], pool[second]
        weights = self._group_shares(sel_counts)[group]
        pair_codes = group_types[sel_keys % n_groups][group]
        pairs_per_group = sel_counts * (sel_counts - 1) // 2
        pair_offsets = np.concatenate(([0], np.cumsum(pairs_per_group)))
        group_cuts = np.searchsorted(
            sel_keys // n_groups, np.arange(n_jobs + 1, dtype=np.int64)
        )
        pair_cuts = pair_offsets[group_cuts].tolist()
        job_ends = ends.tolist()
        for k in range(n_jobs):
            for uid in new_nodes[node_cuts[k] : node_cuts[k + 1]]:
                bn.add_node(uid)
            lo, hi = pair_cuts[k], pair_cuts[k + 1]
            if hi > lo:
                # The job end passes as a scalar: every contribution of the
                # epoch shares it, so add_weights skips the per-row
                # timestamp reduction.
                bn.add_weights(
                    u[lo:hi],
                    v[lo:hi],
                    pair_codes[lo:hi],
                    weights[lo:hi],
                    job_ends[k],
                    btype_table=self.edge_types,
                )
                contributions[k] = hi - lo
        return contributions

    def run_window_job(
        self,
        bn: BehaviorNetwork,
        logs: Iterable[BehaviorLog],
        window: float,
        job_end: float,
    ) -> int:
        """Process the epoch ``(job_end - window, job_end]`` of one window.

        This is the periodic job the BN server schedules (hourly for the
        1-hour window, daily for the 1-day window, ...).  Logs outside the
        epoch are ignored.  Returns the number of pair contributions added.
        The one-job call of :meth:`run_window_jobs`: one
        :meth:`~repro.network.bn.BehaviorNetwork.add_weights` batch, with
        contributions in the order :meth:`run_window_job_reference` issues
        its ``add_weight`` calls (groups in first-occurrence order, members
        ascending), so the resulting network state is bit-identical.
        """
        return self.run_window_jobs(bn, logs, [(window, job_end)])[0]

    def replay(
        self,
        logs: Sequence[BehaviorLog],
        until: float,
        bn: BehaviorNetwork | None = None,
        expire: bool = True,
    ) -> BehaviorNetwork:
        """Replay all window jobs whose epochs close by ``until``.

        Equivalent to :meth:`build` restricted to logs in closed epochs, but
        exercising the online job path, including TTL expiry at the end.
        Jobs run window-major, epochs ascending, input order inside a job,
        as one :meth:`_apply_jobs` pass.  A log joins the job of its
        ``floor`` epoch only if it also lies in that job's
        ``(job_end - window, job_end]`` range, so a log exactly on an epoch
        start is skipped by that window, as the reference does.
        """
        if bn is None:
            bn = BehaviorNetwork(ttl=self.ttl)
        uids, groups, times, group_types = self._encode_logs(logs)
        rows: list[np.ndarray] = []
        lengths: list[np.ndarray] = []
        ends: list[np.ndarray] = []
        for window in self.windows:
            last = int(np.floor((until - self.origin) / window))
            epochs = np.floor((times - self.origin) / window).astype(np.int64)
            job_ends = self.origin + (epochs + 1) * window
            inside = (epochs < last) & (job_ends - window < times) & (times <= job_ends)
            sel = np.flatnonzero(inside)
            if not len(sel):
                continue
            sel = sel[np.argsort(epochs[sel], kind="stable")]
            sel_eps = epochs[sel]
            starts = np.flatnonzero(np.r_[True, sel_eps[1:] != sel_eps[:-1]])
            rows.append(sel)
            lengths.append(np.diff(np.r_[starts, len(sel)]))
            ends.append(job_ends[sel][starts])
        if rows:
            self._apply_jobs(
                bn,
                uids,
                groups,
                group_types,
                np.concatenate(rows),
                np.r_[0, np.cumsum(np.concatenate(lengths))],
                np.concatenate(ends),
            )
        if expire:
            bn.expire_edges(until)
        return bn

    # ------------------------------------------------------------------
    # Pinned reference implementations (parity tests & benchmarks only)
    # ------------------------------------------------------------------
    def build_reference(
        self, logs: Iterable[BehaviorLog], bn: BehaviorNetwork | None = None
    ) -> BehaviorNetwork:
        """Pinned loop twin of :meth:`build` (original per-pair Python)."""
        if bn is None:
            bn = BehaviorNetwork(ttl=self.ttl)
        for btype, (uids, values, times) in self._bucket_by_type(logs, bn).items():
            if not uids:
                continue
            self._build_type_reference(bn, btype, uids, values, times)
        return bn

    def _build_type_reference(
        self,
        bn: BehaviorNetwork,
        btype: BehaviorType,
        uids: list[int],
        values: list[str],
        times: list[float],
    ) -> None:
        """Original dict accumulation: scalar ``add_weight`` per pair."""
        uid_arr = np.asarray(uids, dtype=np.int64)
        time_arr = np.asarray(times, dtype=np.float64)
        value_codes = self._encode_values(values)

        # pair -> [accumulated weight, latest contribution time]
        accum: dict[tuple[int, int], list[float]] = defaultdict(lambda: [0.0, 0.0])
        for window in self.windows:
            self._accumulate_window_reference(
                accum, window, uid_arr, value_codes, time_arr
            )
        for (u, v), (weight, ts) in accum.items():
            bn.add_weight(u, v, btype, weight, ts)

    def _accumulate_window_reference(
        self,
        accum: dict[tuple[int, int], list[float]],
        window: float,
        uid_arr: np.ndarray,
        value_codes: np.ndarray,
        time_arr: np.ndarray,
    ) -> None:
        """Original nested ``for i / for j`` pair loops over one window."""
        members, starts, counts, epochs = self._window_groups(
            window, uid_arr, value_codes, time_arr
        )
        eligible = (counts >= 2) & (counts <= self.max_clique_size)
        for start, count, epoch in zip(
            starts[eligible], counts[eligible], epochs[eligible]
        ):
            users = members[start : start + count]
            epoch_end = self.origin + (int(epoch) + 1) * window
            share = self._share(int(count))
            for i in range(count):
                u = int(users[i])
                for j in range(i + 1, count):
                    entry = accum[(u, int(users[j]))]
                    entry[0] += share
                    entry[1] = max(entry[1], epoch_end)

    def run_window_job_reference(
        self,
        bn: BehaviorNetwork,
        logs: Iterable[BehaviorLog],
        window: float,
        job_end: float,
    ) -> int:
        """Pinned loop twin of :meth:`run_window_job` (scalar mutations)."""
        if window not in self.windows:
            raise ValueError(f"window {window} is not one of the builder's windows")
        lo = job_end - window
        groups: dict[tuple[BehaviorType, str], set[int]] = defaultdict(set)
        for log in logs:
            if log.btype not in self.edge_types:
                continue
            if not lo < log.timestamp <= job_end:
                continue
            bn.add_node(log.uid)
            groups[(log.btype, log.value)].add(log.uid)

        contributions = 0
        for (btype, _value), users in groups.items():
            n = len(users)
            if n < 2 or n > self.max_clique_size:
                continue
            share = self._share(n)
            members = sorted(users)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    bn.add_weight(u, v, btype, share, job_end)
                    contributions += 1
        return contributions

    def replay_reference(
        self,
        logs: Sequence[BehaviorLog],
        until: float,
        bn: BehaviorNetwork | None = None,
        expire: bool = True,
    ) -> BehaviorNetwork:
        """Pinned twin of :meth:`replay`: per-log bucketing, scalar jobs,
        full-scan expiry."""
        if bn is None:
            bn = BehaviorNetwork(ttl=self.ttl)
        for window in self.windows:
            first = (
                int(np.floor((min(l.timestamp for l in logs) - self.origin) / window))
                if logs
                else 0
            )
            last = int(np.floor((until - self.origin) / window))
            buckets: dict[int, list[BehaviorLog]] = defaultdict(list)
            for log in logs:
                epoch = int(np.floor((log.timestamp - self.origin) / window))
                if first <= epoch < last:
                    buckets[epoch].append(log)
            for epoch, epoch_logs in sorted(buckets.items()):
                job_end = self.origin + (epoch + 1) * window
                self.run_window_job_reference(bn, epoch_logs, window, job_end)
        if expire:
            bn._expire_edges_scan(until)
        return bn
