"""Tests for the on-device iterative k schedule (Figures 2/4)."""

import numpy as np
import pytest

from repro.core.extension import PRODUCTION_POLICY, WalkState
from repro.errors import KernelError
from repro.genomics.contig import Contig
from repro.genomics.dna import decode, random_sequence
from repro.genomics.reads import Read, ReadSet
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_batch
from repro.kernels import (
    CudaLocalAssemblyKernel,
    HipLocalAssemblyKernel,
    SyclLocalAssemblyKernel,
)
from repro.simt.device import A100, MAX1550, MI250X


def _contigs(n=4, seed=17):
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(contig_length=200, flank_length=70, read_length=90,
                        depth=8, seed_window=50)
    return [sc.contig for sc in simulate_batch(n, spec, rng, PERFECT_READS)]


def _fork_contig(rng):
    """A contig whose right walk forks at k=21 but resolves at k=33
    (the Figure 1 construction, as in the pipeline tests)."""
    core = decode(random_sequence(25, rng))
    a_pre = decode(random_sequence(60, rng))
    b_pre = decode(random_sequence(60, rng))
    a_post = decode(random_sequence(60, rng))
    b_post = decode(random_sequence(60, rng))
    contig = Contig.from_string("forky", a_pre + core)
    reads = ReadSet()
    for i in range(4):
        reads.append(Read.from_strings(f"a{i}", a_pre + core + a_post))
        reads.append(Read.from_strings(f"b{i}", b_pre + core + b_post))
    contig.reads = reads
    return contig, a_post


class TestRunSchedule:
    def test_single_k_equals_run(self):
        contigs = _contigs()
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        a = kern.run(contigs, 21)
        b = kern.run_schedule(contigs, (21,))
        assert a.right == b.right and a.left == b.left
        assert b.profile.inserts == a.profile.inserts

    def test_accepted_walks_do_not_rerun(self):
        """If every end settles at k=21, later ks are skipped entirely."""
        contigs = _contigs()
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        single = kern.run(contigs, 21)
        assert all(s is not WalkState.FORK for _, s in single.right)
        assert all(s is not WalkState.FORK for _, s in single.left)
        sched = kern.run_schedule(contigs, (21, 33, 55))
        assert sched.profile.inserts == single.profile.inserts  # one k ran
        assert sched.k == 21

    def test_fork_resolved_by_next_k(self):
        rng = np.random.default_rng(3)
        contig, a_post = _fork_contig(rng)
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        at21 = kern.run([contig], 21)
        assert at21.right[0][1] is WalkState.FORK
        sched = kern.run_schedule([contig], (21, 33))
        bases, state = sched.right[0]
        assert state is not WalkState.FORK
        assert bases and a_post.startswith(bases)
        assert sched.k == 33

    def test_profiles_accumulate_across_ks(self):
        rng = np.random.default_rng(4)
        contig, _ = _fork_contig(rng)
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        p21 = kern.run([contig], 21).profile
        sched = kern.run_schedule([contig], (21, 33))
        assert sched.profile.inserts > p21.inserts  # both ks constructed
        assert sched.profile.kernels_launched > p21.kernels_launched

    def test_unresolved_fork_keeps_longest(self):
        """A tie that never resolves still reports its best extension."""
        rng = np.random.default_rng(11)
        seq = decode(random_sequence(40, rng))  # aperiodic
        contig = Contig.from_string("tie", seq)
        reads = ReadSet()
        for i in range(3):
            reads.append(Read.from_strings(f"x{i}", seq + "AAAAAACGCGT"))
            reads.append(Read.from_strings(f"y{i}", seq + "CCCCCTTGACG"))
        contig.reads = reads
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        sched = kern.run_schedule([contig], (21, 33))
        bases, state = sched.right[0]
        assert state is WalkState.FORK  # both ks fork immediately

    def test_rejects_bad_schedule(self):
        kern = CudaLocalAssemblyKernel(A100)
        with pytest.raises(KernelError):
            kern.run_schedule(_contigs(n=1), ())
        with pytest.raises(KernelError):
            kern.run_schedule(_contigs(n=1), (33, 21))

    @pytest.mark.parametrize("kernel_cls, device", [
        (CudaLocalAssemblyKernel, A100),
        (HipLocalAssemblyKernel, MI250X),
        (SyclLocalAssemblyKernel, MAX1550),
    ])
    def test_empty_input_returns_empty_result(self, kernel_cls, device):
        """No contigs: an empty result, as single-k ``run([])`` gives."""
        kern = kernel_cls(device)
        sched = kern.run_schedule([], (21, 33))
        single = kern.run([], 21)
        assert sched.right == [] and sched.left == []
        assert sched.k == 21
        assert sched.profile.contigs == 0
        assert sched.profile == single.profile
