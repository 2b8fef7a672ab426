"""Round/message/bit accounting for simulated distributed runs.

Metrics accumulate across sub-protocols run on the same :class:`Network`, so
a composite algorithm (e.g. Algorithm 4 calling the bipartite Aug procedure
many times) reports its true total cost.

Two accounts coexist:

* the **physical** account (``rounds``, ``messages``, ``total_bits``,
  ``total_rounds``) — the paper-model cost of the parent network, exactly
  as before the composition runtime existed (bit-identical for legacy
  callers);
* the **subnetwork** account (``sub_rounds``, ``sub_messages``,
  ``sub_bits``, ``subnetwork_rounds``) — the raw cost of *emulated* child
  runs executed through :class:`~repro.congest.runtime.Subnetwork` that is
  not already part of the physical account (e.g. Luby MIS rounds on a
  conflict graph, whose physical cost appears as a Lemma 3.5 emulation
  charge instead).  ``rounds_total`` is the end-to-end sum of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Metrics:
    """Cumulative cost of everything executed on a network so far."""

    rounds: int = 0
    pipelined_extra_rounds: int = 0
    messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    protocol_rounds: Dict[str, int] = field(default_factory=dict)
    global_checks: int = 0
    # raw cost of emulated subnetwork runs (not in the physical account)
    sub_rounds: int = 0
    sub_messages: int = 0
    sub_bits: int = 0
    #: raw child rounds per subnetwork label (absorbed children included,
    #: so the breakdown is complete even when totals live elsewhere)
    subnetwork_rounds: Dict[str, int] = field(default_factory=dict)
    # shard account (sharded multi-process execution): the partition cut
    # size and the halo traffic that crossed shard boundaries.  Excluded
    # from equality so sharded runs stay golden-comparable to
    # single-process runs on the legacy accounts.
    shard_cut_edges: int = field(default=0, compare=False)
    shard_halo_bits: int = field(default=0, compare=False)
    #: fixed-width halo records exchanged by shard workers
    shard_halo_records: int = field(default=0, compare=False)
    #: max shard size * shards / n of the latest partition (1.0 = perfect)
    shard_imbalance: float = field(default=0.0, compare=False)
    # CSR adjacency cache reuse on the underlying Graph (also compare=False:
    # cache behavior is an implementation detail, never a cost-model fact)
    csr_cache_hits: int = field(default=0, compare=False)
    csr_cache_misses: int = field(default=0, compare=False)
    # memory account (simulated MPC clusters): the peak resident words on
    # any machine, the per-machine cap S = ceil(n**alpha), and the machine
    # count.  compare=False: CONGEST runs never touch it, so the legacy
    # golden equalities are unaffected.
    memory_peak_words: int = field(default=0, compare=False)
    memory_limit_words: int = field(default=0, compare=False)
    memory_machines: int = field(default=0, compare=False)

    @property
    def total_rounds(self) -> int:
        """Rounds including the pipelining charge for oversized messages."""
        return self.rounds + self.pipelined_extra_rounds

    @property
    def rounds_total(self) -> int:
        """End-to-end rounds: the physical account plus every virtual round
        executed by emulated subnetworks.  Every round anywhere in the
        composition is counted exactly once (absorbed children already live
        in ``rounds``, so they do not re-count here)."""
        return self.total_rounds + self.sub_rounds

    def record_round(self, protocol: str, extra_pipeline_rounds: int = 0) -> None:
        self.rounds += 1
        self.pipelined_extra_rounds += extra_pipeline_rounds
        self.protocol_rounds[protocol] = (
            self.protocol_rounds.get(protocol, 0) + 1 + extra_pipeline_rounds
        )

    def record_message(self, bits: int) -> None:
        self.messages += 1
        self.total_bits += bits
        if bits > self.max_message_bits:
            self.max_message_bits = bits

    def record_message_batch(self, messages: int, total_bits: int,
                             max_message_bits: int) -> None:
        """Fold one round's worth of pre-aggregated message traffic in.

        Equivalent to ``messages`` individual :meth:`record_message` calls
        totalling ``total_bits`` with maximum ``max_message_bits``; the
        batched engine accumulates per round and records once.
        """
        self.messages += messages
        self.total_bits += total_bits
        if max_message_bits > self.max_message_bits:
            self.max_message_bits = max_message_bits

    def charge_rounds(self, protocol: str, rounds: int) -> None:
        """Charge rounds for a documented constant-round local step.

        Used where the paper says "in constant time we can ..." (e.g.
        applying wrap-augmentations in Algorithm 5): the step is performed
        by the driver and its round cost is charged explicitly.
        """
        self.rounds += rounds
        self.protocol_rounds[protocol] = (
            self.protocol_rounds.get(protocol, 0) + rounds
        )

    def absorb(self, other: "Metrics") -> None:
        """Fold the cost of a sub-network run into this account.

        Algorithm 5 runs its delta-MWM black box on the residual-weight
        subgraph; the sub-run happens over the same physical network, so its
        rounds/messages/bits are charged here.
        """
        self.rounds += other.rounds
        self.pipelined_extra_rounds += other.pipelined_extra_rounds
        self.messages += other.messages
        self.total_bits += other.total_bits
        self.max_message_bits = max(self.max_message_bits, other.max_message_bits)
        for k, v in other.protocol_rounds.items():
            self.protocol_rounds[k] = self.protocol_rounds.get(k, 0) + v
        self.global_checks += other.global_checks
        self.sub_rounds += other.sub_rounds
        self.sub_messages += other.sub_messages
        self.sub_bits += other.sub_bits
        for k, v in other.subnetwork_rounds.items():
            self.subnetwork_rounds[k] = self.subnetwork_rounds.get(k, 0) + v
        self.shard_cut_edges = max(self.shard_cut_edges, other.shard_cut_edges)
        self.shard_halo_bits += other.shard_halo_bits
        self.shard_halo_records += other.shard_halo_records
        self.shard_imbalance = max(self.shard_imbalance, other.shard_imbalance)
        self.csr_cache_hits += other.csr_cache_hits
        self.csr_cache_misses += other.csr_cache_misses
        if other.memory_peak_words > self.memory_peak_words:
            self.memory_peak_words = other.memory_peak_words
        if other.memory_limit_words:
            self.memory_limit_words = other.memory_limit_words
            self.memory_machines = other.memory_machines

    def record_shard_run(self, cut_edges: int, imbalance: float) -> None:
        """Record the partition shape of a sharded execution (gauges)."""
        self.shard_cut_edges = cut_edges
        self.shard_imbalance = imbalance

    def record_halo_bits(self, bits: int, records: int = 0) -> None:
        """Account halo (cut-edge) traffic exchanged between shards.

        ``records`` counts the fixed-width int64 records the shard
        workers published."""
        self.shard_halo_bits += bits
        self.shard_halo_records += records

    def record_csr_cache(self, hits: int, misses: int) -> None:
        """Fold Graph CSR-cache reuse counters into this account."""
        self.csr_cache_hits += hits
        self.csr_cache_misses += misses

    def record_memory(self, peak_words: int, limit_words: int,
                      machines: int) -> None:
        """Record a simulated MPC cluster's memory account (gauges).

        ``peak_words`` folds as a running maximum so a cluster that runs
        several protocols reports its true high-water mark; the cap and
        machine count are those of the latest cluster.
        """
        if peak_words > self.memory_peak_words:
            self.memory_peak_words = peak_words
        self.memory_limit_words = limit_words
        self.memory_machines = machines

    def record_subnetwork(self, label: str, child: "Metrics",
                          physical: bool = False,
                          traffic: bool = True) -> None:
        """Account for a child :class:`~repro.congest.runtime.Subnetwork` run.

        ``physical=False`` (an *emulated* child, e.g. MIS on a conflict
        graph): the child's raw rounds/messages/bits go into the subnetwork
        account, because the physical account carries an emulation charge
        instead.  ``physical=True`` (an *absorbed* child): the child already
        landed in the physical account via :meth:`absorb`, so only the
        per-label breakdown is updated here.  ``traffic=False`` skips the
        message/bit fold for emulated children whose traffic was already
        folded into the physical account (nothing is ever counted twice).
        """
        raw_rounds = child.rounds_total
        self.subnetwork_rounds[label] = (
            self.subnetwork_rounds.get(label, 0) + raw_rounds
        )
        if not physical:
            self.sub_rounds += raw_rounds
            if traffic:
                self.sub_messages += child.messages + child.sub_messages
                self.sub_bits += child.total_bits + child.sub_bits

    def record_global_check(self) -> None:
        """A driver-level global predicate evaluation (see DESIGN.md).

        In a deployment this is an O(diameter) convergecast; the simulator
        counts occurrences so experiments can report the overhead explicitly.
        """
        self.global_checks += 1

    def snapshot(self) -> "Metrics":
        m = Metrics(
            rounds=self.rounds,
            pipelined_extra_rounds=self.pipelined_extra_rounds,
            messages=self.messages,
            total_bits=self.total_bits,
            max_message_bits=self.max_message_bits,
            protocol_rounds=dict(self.protocol_rounds),
            global_checks=self.global_checks,
            sub_rounds=self.sub_rounds,
            sub_messages=self.sub_messages,
            sub_bits=self.sub_bits,
            subnetwork_rounds=dict(self.subnetwork_rounds),
            shard_cut_edges=self.shard_cut_edges,
            shard_halo_bits=self.shard_halo_bits,
            shard_halo_records=self.shard_halo_records,
            shard_imbalance=self.shard_imbalance,
            csr_cache_hits=self.csr_cache_hits,
            csr_cache_misses=self.csr_cache_misses,
            memory_peak_words=self.memory_peak_words,
            memory_limit_words=self.memory_limit_words,
            memory_machines=self.memory_machines,
        )
        return m

    def delta_since(self, before: "Metrics") -> "Metrics":
        """Metrics accumulated since a :meth:`snapshot`."""
        return Metrics(
            rounds=self.rounds - before.rounds,
            pipelined_extra_rounds=(
                self.pipelined_extra_rounds - before.pipelined_extra_rounds
            ),
            messages=self.messages - before.messages,
            total_bits=self.total_bits - before.total_bits,
            max_message_bits=max(self.max_message_bits, before.max_message_bits),
            protocol_rounds={
                k: v - before.protocol_rounds.get(k, 0)
                for k, v in self.protocol_rounds.items()
                if v - before.protocol_rounds.get(k, 0) > 0
            },
            global_checks=self.global_checks - before.global_checks,
            sub_rounds=self.sub_rounds - before.sub_rounds,
            sub_messages=self.sub_messages - before.sub_messages,
            sub_bits=self.sub_bits - before.sub_bits,
            subnetwork_rounds={
                k: v - before.subnetwork_rounds.get(k, 0)
                for k, v in self.subnetwork_rounds.items()
                if v - before.subnetwork_rounds.get(k, 0) > 0
            },
            shard_cut_edges=self.shard_cut_edges,
            shard_halo_bits=self.shard_halo_bits - before.shard_halo_bits,
            shard_halo_records=(self.shard_halo_records
                                - before.shard_halo_records),
            shard_imbalance=self.shard_imbalance,
            csr_cache_hits=self.csr_cache_hits - before.csr_cache_hits,
            csr_cache_misses=self.csr_cache_misses - before.csr_cache_misses,
            # gauges, not counters: the delta carries the current values
            memory_peak_words=self.memory_peak_words,
            memory_limit_words=self.memory_limit_words,
            memory_machines=self.memory_machines,
        )

    def __str__(self) -> str:
        text = (
            f"rounds={self.total_rounds} (sync={self.rounds}, "
            f"pipelined=+{self.pipelined_extra_rounds}) "
            f"messages={self.messages} bits={self.total_bits} "
            f"max_msg_bits={self.max_message_bits}"
        )
        if self.sub_rounds:
            text += (f" rounds_total={self.rounds_total} "
                     f"(+{self.sub_rounds} emulated)")
        return text
