"""Named end-to-end assembly scenarios beyond the paper's Table II.

Table II characterizes the *local-assembly extract* datasets; these
presets instead exercise the whole pipeline (``repro assemble``) on
synthetic read sets with controlled pathologies:

* ``single_genome`` — one organism, even coverage: the easy baseline.
* ``metagenome`` — three organisms at uneven abundance, the regime the
  paper's MetaHipMer datasets come from.
* ``uneven_coverage`` — one organism, deep front half / thin back half;
  the thin half is where the multi-k feed-forward earns its keep.
* ``high_error`` — 2% substitution error, stressing the k-mer error
  filter (singletons vs threshold-rejected accounting).
* ``tandem_repeat`` — a 30-base unit repeated in tandem, unresolvable at
  every k in the schedule: the pathological worst case.
* ``fork_resolution`` — a hand-tiled genome where an interspersed repeat
  forks the k=21 graph and a thin junction breaks the k=33 graph, so
  *only* the k=(21, 33) schedule with round-to-round contig feed-forward
  assembles a single full-length contig. This is the committed
  regression scenario for the feed-forward fix.

Every scenario is deterministic given its seed: golden outputs (contig
fingerprints, N50, per-round statistics) are committed under
``tests/datasets/golden_scenarios.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.genomics.dna import ALPHABET_SIZE
from repro.genomics.reads import ReadSet
from repro.genomics.simulate import (
    PERFECT_READS,
    ErrorProfile,
    sequence_read,
    simulate_genome,
)

__all__ = ["SCENARIOS", "AssemblyScenario", "ScenarioData", "get_scenario"]


@dataclass
class ScenarioData:
    """One built scenario: the truth genomes and the sampled reads."""

    genomes: list[np.ndarray]
    reads: ReadSet


def _coverage_reads(
    genome: np.ndarray,
    depth: float,
    read_len: int,
    rng: np.random.Generator,
    profile: ErrorProfile,
    out: ReadSet,
    prefix: str,
    lo: int = 0,
    hi: int | None = None,
) -> None:
    """Sample reads to ``depth``x coverage of ``genome[lo:hi]``."""
    hi = len(genome) if hi is None else hi
    span = hi - lo
    count = int(span * depth / read_len)
    first = max(0, lo - read_len + 1)
    last = min(len(genome), hi) - read_len
    for i in range(count):
        s = int(rng.integers(first, last + 1))
        out.append(sequence_read(genome, s, read_len, rng, profile,
                                 name=f"{prefix}{len(out)}"))


def _tiled_reads(
    genome: np.ndarray,
    starts: list[int],
    read_len: int,
    rng: np.random.Generator,
    out: ReadSet,
    prefix: str,
) -> None:
    """One perfect read per listed start position (deterministic tiling)."""
    for s in starts:
        out.append(sequence_read(genome, s, read_len, rng, PERFECT_READS,
                                 name=f"{prefix}{len(out)}"))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def _build_single_genome(rng: np.random.Generator) -> ScenarioData:
    g = simulate_genome(2000, rng)
    reads = ReadSet()
    _coverage_reads(g, 10, 100, rng, ErrorProfile(error_rate=0.001),
                    reads, "sg")
    return ScenarioData([g], reads)


def _build_metagenome(rng: np.random.Generator) -> ScenarioData:
    lengths = (900, 700, 500)
    depths = (10, 7, 5)
    genomes = [simulate_genome(n, rng) for n in lengths]
    reads = ReadSet()
    for i, (g, d) in enumerate(zip(genomes, depths)):
        _coverage_reads(g, d, 80, rng, ErrorProfile(error_rate=0.002),
                        reads, f"mg{i}_")
    return ScenarioData(genomes, reads)


def _build_uneven_coverage(rng: np.random.Generator) -> ScenarioData:
    g = simulate_genome(1600, rng)
    reads = ReadSet()
    profile = ErrorProfile(error_rate=0.002)
    _coverage_reads(g, 14, 90, rng, profile, reads, "deep", lo=0, hi=800)
    _coverage_reads(g, 4, 90, rng, profile, reads, "thin", lo=800, hi=1600)
    return ScenarioData([g], reads)


def _build_high_error(rng: np.random.Generator) -> ScenarioData:
    g = simulate_genome(1200, rng)
    reads = ReadSet()
    _coverage_reads(g, 15, 100, rng, ErrorProfile(error_rate=0.02),
                    reads, "he")
    return ScenarioData([g], reads)


def _build_tandem_repeat(rng: np.random.Generator) -> ScenarioData:
    unit = simulate_genome(30, rng)
    g = np.concatenate([simulate_genome(300, rng)] + [unit] * 4
                       + [simulate_genome(300, rng)])
    reads = ReadSet()
    _coverage_reads(g, 12, 80, rng, PERFECT_READS, reads, "tr")
    return ScenarioData([g], reads)


def _build_fork_resolution(rng: np.random.Generator) -> ScenarioData:
    """The committed feed-forward regression genome (890 bp).

    Layout ``A(260) X(25) B(320) X(25) C(260)`` with two deliberate
    pathologies tuned to the k = (21, 33) schedule:

    * the interspersed 25-base repeat ``X`` forks the k=21 graph at both
      occurrences (25 >= 21) but is fully spanned by 33-mers (25 < 33);
    * a *thin junction* inside ``B``: reads are tiled every 15 bases
      except around position 400, where exactly two reads overlap by
      26 bases — enough for unbroken 21-mer coverage, but 33-mers
      starting at 413..418 appear in no read.

    So k=33 alone breaks at the junction (two ~445 bp contigs), k=21
    alone breaks at the repeats — and only the multi-k schedule with
    merged contigs fed forward from the k=21 round reconstructs the
    whole 890 bp sequence. Dense step-5 tiling around each repeat keeps
    every repeat-spanning 33-mer in the raw reads, so the carried
    contigs only need to contribute the junction's missing 33-mers.
    """
    a = simulate_genome(260, rng)
    x = simulate_genome(25, rng)
    b = simulate_genome(320, rng)
    c = simulate_genome(260, rng)
    # Force real forks at the repeat boundaries: the bases entering and
    # leaving the two X occurrences must differ between occurrences.
    b[0] = (int(c[0]) + 1) % ALPHABET_SIZE     # successor fork after X
    a[-1] = (int(b[-1]) + 1) % ALPHABET_SIZE   # predecessor fork before X
    g = np.concatenate([a, x, b, x, c])  # 260 + 25 + 320 + 25 + 260 = 890

    read_len = 60
    gap_lo, gap_hi = 385, 419  # the thin junction's two read starts
    starts = [s for s in range(0, len(g) - read_len + 1, 15)
              if not gap_lo < s < gap_hi]
    starts += [gap_lo, gap_hi, len(g) - read_len]
    # Dense tiling across both repeat occurrences ([260,285) and
    # [605,630)) so every 33-mer spanning a repeat exists in the reads.
    starts += list(range(215, 286, 5)) + list(range(560, 631, 5))
    reads = ReadSet()
    _tiled_reads(g, sorted(set(starts)), read_len, rng, reads, "fr")
    return ScenarioData([g], reads)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AssemblyScenario:
    """One named end-to-end assembly preset.

    Attributes:
        name: registry key (the CLI's ``--scenario`` value).
        description: one-line summary for ``--help`` and reports.
        k_schedule: default k schedule for the preset.
        min_count: k-mer error-filter / edge-support threshold.
        seed: default RNG seed (golden outputs are pinned to it).
    """

    name: str
    description: str
    builder: "callable" = field(repr=False)
    k_schedule: tuple[int, ...] = (21, 33)
    min_count: int = 2
    seed: int = 0

    def build(self, seed: int | None = None) -> ScenarioData:
        """Generate the scenario's genomes and reads (deterministic)."""
        rng = np.random.default_rng(self.seed if seed is None else seed)
        return self.builder(rng)


_PRESETS = [
    AssemblyScenario(
        name="single_genome",
        description="one 2 kb organism, 10x even coverage, 0.1% error",
        builder=_build_single_genome,
        seed=11,
    ),
    AssemblyScenario(
        name="metagenome",
        description="three organisms (900/700/500 bp) at 10/7/5x, 0.2% error",
        builder=_build_metagenome,
        seed=12,
    ),
    AssemblyScenario(
        name="uneven_coverage",
        description="1.6 kb organism, 14x front half vs 4x back half",
        builder=_build_uneven_coverage,
        seed=13,
    ),
    AssemblyScenario(
        name="high_error",
        description="1.2 kb organism at 15x with 2% substitution error",
        builder=_build_high_error,
        seed=14,
    ),
    AssemblyScenario(
        name="tandem_repeat",
        description="30 bp unit x4 tandem repeat, unresolvable at k<=33",
        builder=_build_tandem_repeat,
        seed=15,
    ),
    AssemblyScenario(
        name="fork_resolution",
        description="interspersed repeat + thin junction; needs multi-k "
                    "feed-forward to assemble one contig",
        builder=_build_fork_resolution,
        min_count=1,
        seed=16,
    ),
]

#: name -> preset, the CLI's ``--scenario`` choices.
SCENARIOS: dict[str, AssemblyScenario] = {s.name: s for s in _PRESETS}


def get_scenario(name: str) -> AssemblyScenario:
    """Look up a preset; raises ``KeyError`` listing valid names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; valid: {', '.join(sorted(SCENARIOS))}"
        ) from None
