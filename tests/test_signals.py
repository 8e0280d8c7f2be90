"""Synthetic signals, SNR/MSE metrics, and the signal file format."""

import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsdenoise
from gsdenoise.chebyshev import apply_filter, sgwt_forward_fast
from gsdenoise.frame import PartitionOfUnity, sgwt_forward_exact
from gsdenoise.graph import build_graph, grid_graph, laplacian, \
    random_connected_graph
from gsdenoise.pipeline import PipelineConfig, denoise_pipeline
from gsdenoise.signals import (
    SignalSpec,
    mse,
    read_signal,
    snr,
    synth_signal,
    write_signal,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec(0.0, 1)
    with pytest.raises(ValueError):
        SignalSpec(1.0, 1)
    with pytest.raises(ValueError):
        SignalSpec(0.5, -1)


@pytest.mark.parametrize("k", [2.0, np.float64(3.0), True, False, "2", None])
def test_spec_refuses_a_k_that_is_not_an_integer(k):
    # k is a count of diffusion steps: a float is no count even when
    # integral, and a bool is not one either
    with pytest.raises(ValueError, match=r"^k must be an integer, got "):
        SignalSpec(0.3, k)


def test_spec_takes_an_integer_k_from_zero():
    assert SignalSpec(0.3, 0).k == 0
    assert SignalSpec(0.3, np.int64(3)).k == 3
    with pytest.raises(ValueError, match=r"^k must be at least 0$"):
        SignalSpec(0.3, -1)


def test_zero_diffusion_returns_the_bernoulli_draw():
    g = random_connected_graph(80, seed=0)
    f = synth_signal(g, SignalSpec(0.3, 0, seed=5))
    assert set(np.unique(f)) <= {0.0, 1.0}
    assert np.array_equal(f, synth_signal(g, SignalSpec(0.3, 0, seed=5)))


def test_single_diffusion_on_triangle_by_hand():
    g = build_graph([(0, 1), (1, 2), (0, 2)])
    # find a seed whose draw is exactly (1, 0, 0), then one hop gives (0,1,1)
    for seed in range(200):
        if np.array_equal(synth_signal(g, SignalSpec(0.5, 0, seed)),
                          [1.0, 0.0, 0.0]):
            f = synth_signal(g, SignalSpec(0.5, 1, seed))
            assert np.array_equal(f, [0.0, 1.0, 1.0])
            return
    pytest.fail("no seed produced the (1,0,0) draw")


def test_source_density_concentrates():
    g = grid_graph(100000, 1)
    x = synth_signal(g, SignalSpec(0.2, 0, seed=0))
    assert abs(x.mean() - 0.2) <= 3 * math.sqrt(0.2 * 0.8 / g.n)


def test_snr_reference_points():
    f = np.array([3.0, 4.0])
    assert snr(f, np.zeros(2)) == 0.0
    assert snr(f, f) == math.inf
    assert snr(f, 1.1 * f) == pytest.approx(20.0, abs=1e-10)
    with pytest.raises(ValueError, match="zero reference"):
        snr(np.zeros(2), f)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99))
def test_snr_increases_as_error_shrinks(shrink):
    f = np.array([1.0, -2.0, 0.5])
    e = np.array([0.3, 0.1, -0.2])
    assert snr(f, f + shrink * e) > snr(f, f + e)


def test_mse_reference_points():
    assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
    a = np.array([1.0, 2.0, 3.0])
    assert mse(a, a) == 0.0
    b = np.array([0.0, 1.0, 5.0])
    assert mse(a, b) == mse(b, a)
    with pytest.raises(ValueError, match="shape"):
        mse(a, np.ones(2))


def test_sums_independent_of_blas_threads():
    # BLAS's dot product rounds differently under two threads from 4.5e5
    # entries on; SURE, SNR and MSE sum through einsum instead, so each
    # prints the same under one BLAS thread and under two
    code = textwrap.dedent("""
        import numpy as np
        from gsdenoise.frame import FrameCoefficients
        from gsdenoise.signals import mse, snr
        from gsdenoise.sure import sure_value
        rng = np.random.default_rng(0)
        n = 5 * 10 ** 5
        f = rng.standard_normal(n)
        fhat = f + 0.1 * rng.standard_normal(n)
        coeffs = FrameCoefficients(rng.standard_normal(2 * n), n, 1)
        shrunk = FrameCoefficients(0.9 * coeffs.values, n, 1)
        print(repr(sure_value(coeffs, shrunk, rng.random(2 * n), 1.5,
                              rng.random(2 * n))),
              repr(snr(f, fhat)), repr(mse(f, fhat)))
        """)
    src = str(Path(gsdenoise.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=300).stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].split()) == 3


def test_signal_file_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "s.txt"
    vals = np.array([1.5, -2.25e-8, 0.0, math.pi])
    write_signal(path, vals, header={"sigma": 2.5, "seed": 7})
    back, header = read_signal(path)
    assert np.array_equal(back, vals)
    assert header == {"sigma": "2.5", "seed": "7"}


def test_labelled_signal_resolves_through_graph(tmp_path):
    g = build_graph([("a", "b"), ("b", "c")])
    path = tmp_path / "s.txt"
    path.write_text("# sigma = 1.0\nb,2.5\na,1.25\n")
    vals, header = read_signal(path, graph=g)
    assert np.array_equal(vals, [1.25, 2.5, 0.0])  # unnamed node defaults 0
    assert header["sigma"] == "1.0"


def test_labelled_signal_needs_graph(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("a,1.0\n")
    with pytest.raises(ValueError, match="graph"):
        read_signal(path)


def test_unknown_label_rejected(tmp_path):
    g = build_graph([("a", "b")])
    path = tmp_path / "s.txt"
    path.write_text("zz,1.0\n")
    with pytest.raises(ValueError, match="zz"):
        read_signal(path, graph=g)


def test_mixed_formats_rejected(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1.0\na,2.0\n")
    with pytest.raises(ValueError, match="mixed"):
        read_signal(path, graph=build_graph([("a", "b")]))


def test_length_checked_against_graph(tmp_path):
    g = build_graph([(0, 1), (1, 2)])
    path = tmp_path / "s.txt"
    write_signal(path, np.ones(2))
    with pytest.raises(ValueError, match="3 nodes"):
        read_signal(path, graph=g)


def test_malformed_value_names_the_line(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ValueError, match=":2"):
        read_signal(path)


def test_label_given_twice_rejected_at_its_second_line(tmp_path):
    g = build_graph([("a", "b")])
    path = tmp_path / "s.txt"
    path.write_text("a,1.0\nb,2.0\na,5.0\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:3: node label 'a' given twice, first on line 1")):
        read_signal(path, graph=g)


def test_signal_file_bytes_match_the_per_value_writer(tmp_path):
    rng = np.random.default_rng(4)
    vals = np.concatenate([
        rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
        [0.0, -0.0, 1.0, 5e-324, math.inf, -math.inf, math.nan, 1e16]])
    path = tmp_path / "s.txt"
    for values in (vals, vals[:0]):
        write_signal(path, values, header={"sigma": 2.5})
        assert path.read_text() == "# sigma = 2.5\n" + "".join(
            f"{float(v)!r}\n" for v in values)


@pytest.mark.parametrize("entry", ["adj_matvec", "apply_filter",
                                   "sgwt_forward_fast", "sgwt_forward_exact",
                                   "denoise_pipeline"])
@pytest.mark.parametrize("shape", [(11,), (12, 1)])
def test_signal_entry_points_refuse_a_wrong_length(entry, shape):
    g = grid_graph(4, 3)
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    call = {
        "adj_matvec": g.adj_matvec,
        "apply_filter": lambda f: apply_filter(L, np.exp, f, K=5),
        "sgwt_forward_fast": lambda f: sgwt_forward_fast(L, f, pou, K=5),
        "sgwt_forward_exact": lambda f: sgwt_forward_exact(L, f, pou),
        "denoise_pipeline": lambda f: denoise_pipeline(
            g, f, PipelineConfig(sigma=1.0, K=5, N=2)),
    }[entry]
    with pytest.raises(ValueError, match=re.escape(
            f"expected signal of length 12, got shape {shape}")):
        call(np.ones(shape))
