"""The full local-assembly pipeline (Figures 2 and 3, CPU form).

For each contig: construct the de Bruijn hash table from its reads and
mer-walk both ends. The right end walks the table directly; the left end
is handled by reverse-complementing the reads and the seed so it becomes
a right walk (the GPU version launches separate right- and left-extension
kernels, Figure 3). If a walk ends at a *fork*, the pipeline retries with
the next k-mer size in the schedule — larger k resolves forks (Figure 1)
— keeping the longest accepted extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.construct import build_table
from repro.core.extension import DEFAULT_POLICY, WalkPolicy, WalkState
from repro.core.merwalk import DEFAULT_MAX_WALK_LEN, WalkResult, mer_walk
from repro.errors import KmerError
from repro.genomics.contig import Contig, ContigExtension, End
from repro.genomics.dna import reverse_complement, reverse_complement_str
from repro.genomics.reads import Read, ReadSet

#: MetaHipMer's production k-mer schedule (Figure 2).
DEFAULT_K_SCHEDULE = (21, 33, 55, 77)


def _reverse_complement_reads(reads: ReadSet) -> ReadSet:
    """Reverse-complement every read (qualities reverse along with bases)."""
    out = ReadSet()
    for r in reads:
        out.append(
            Read(name=r.name + "/rc", codes=reverse_complement(r.codes),
                 quals=r.quals[::-1].copy())
        )
    return out


@dataclass
class AssemblyResult:
    """Per-contig outcome of the pipeline.

    Attributes:
        contig: the input contig, with extension records attached.
        right_walks / left_walks: every walk attempted (one per k tried).
    """

    contig: Contig
    right_walks: list[WalkResult] = field(default_factory=list)
    left_walks: list[WalkResult] = field(default_factory=list)

    @property
    def extension_length(self) -> int:
        return self.contig.total_extension_length()


class LocalAssembler:
    """Drives Algorithm 1 + Algorithm 2 over a set of contigs.

    Args:
        k_schedule: increasing k-mer sizes to iterate through (Figure 2).
        max_walk_len: cap on each extension's length.
        policy: vote-resolution thresholds.
        seed: Murmur seed for all tables.
    """

    def __init__(
        self,
        k_schedule: tuple[int, ...] = DEFAULT_K_SCHEDULE,
        max_walk_len: int = DEFAULT_MAX_WALK_LEN,
        policy: WalkPolicy = DEFAULT_POLICY,
        seed: int = 0,
    ) -> None:
        if not k_schedule:
            raise KmerError("k_schedule must not be empty")
        if list(k_schedule) != sorted(set(k_schedule)):
            raise KmerError(f"k_schedule must be strictly increasing, got {k_schedule}")
        self.k_schedule = tuple(int(k) for k in k_schedule)
        self.max_walk_len = max_walk_len
        self.policy = policy
        self.seed = seed

    def _walk_one_end(
        self, contig: Contig, reads: ReadSet, end: End
    ) -> tuple[ContigExtension, list[WalkResult]]:
        """Iterate the k schedule for one contig end; keep the best walk."""
        walks: list[WalkResult] = []
        best: WalkResult | None = None
        for k in self.k_schedule:
            if k > len(contig) or reads.kmer_count(k + 1) == 0:
                break
            table = build_table(reads, k, seed=self.seed)
            seed_kmer = contig.end_kmer(k, End.RIGHT) if end is End.RIGHT else None
            if end is End.LEFT:
                seed_kmer = reverse_complement(contig.end_kmer(k, End.LEFT))
            walk = mer_walk(table, seed_kmer, self.max_walk_len, self.policy)
            walks.append(walk)
            # An accepted walk always beats a kept fork (even a longer
            # one — the fork's bases are unresolved guesses); within the
            # same acceptance class the longest extension wins.
            if (
                best is None
                or (walk.accepted and not best.accepted)
                or (walk.accepted == best.accepted and len(walk) > len(best))
            ):
                best = walk
            if walk.accepted and walk.state is not WalkState.MISSING:
                break
        if best is None:
            best = WalkResult(bases="", state=WalkState.MISSING, steps=0,
                              k=self.k_schedule[0])
        bases = best.bases
        if end is End.LEFT and bases:
            bases = reverse_complement_str(bases)
        ext = ContigExtension(
            end=end, bases=bases, walk_state=best.state.value,
            kmer_size=best.k, steps=best.steps,
        )
        return ext, walks

    def assemble_contig(self, contig: Contig) -> AssemblyResult:
        """Extend both ends of one contig; attaches extension records.

        When the contig carries read-to-end assignments
        (``read_end_hints``), each walk only sees its own end's reads,
        exactly like the GPU's separate right/left extension kernels.
        """
        result = AssemblyResult(contig=contig)
        right_ext, result.right_walks = self._walk_one_end(
            contig, contig.reads_for_end(End.RIGHT), End.RIGHT
        )
        rc_reads = _reverse_complement_reads(contig.reads_for_end(End.LEFT))
        left_ext, result.left_walks = self._walk_one_end(contig, rc_reads, End.LEFT)
        contig.right_extension = right_ext
        contig.left_extension = left_ext
        return result

    def assemble(self, contigs: list[Contig]) -> list[AssemblyResult]:
        """Extend every contig; returns one result per input contig."""
        return [self.assemble_contig(c) for c in contigs]
