import math
import random
import tracemalloc

import numpy as np
import pytest

from lsalign.core import TokenSequence, ValidationError
from lsalign.ctcseg import (
    FramePosteriors,
    InfeasibleAlignment,
    ctc_align,
    read_frame_posteriors,
    write_frame_posteriors,
)


def brute_force_best_path(matrix, token_ids):
    """Enumerate every valid blank-interleaved state path; return
    (best probability, list of best state paths)."""
    t_frames, cols = matrix.shape
    blank = cols - 1
    expanded = [blank]
    for tok in token_ids:
        expanded.extend([tok, blank])
    n_states = len(expanded)
    finals = {n_states - 1, n_states - 2}
    complete = []

    def dfs(t, s, prob, path):
        prob = prob * matrix[t][expanded[s]]
        path = path + [s]
        if t == t_frames - 1:
            if s in finals:
                complete.append((prob, path))
            return
        for ns in (s, s + 1, s + 2):
            if ns >= n_states:
                continue
            if ns == s + 2 and (expanded[ns] == blank or expanded[ns] == expanded[s]):
                continue
            dfs(t + 1, ns, prob, path)

    for s0 in (0, 1):
        dfs(0, s0, 1.0, [])
    if not complete:
        return None, []
    best = max(p for p, _ in complete)
    return best, [path for p, path in complete if p == best]


def path_to_intervals(path, token_ids):
    intervals = []
    t = 0
    while t < len(path):
        s = path[t]
        if s % 2 == 1:
            start = t
            while t < len(path) and path[t] == s:
                t += 1
            intervals.append(((s + 1) // 2, start, t))
        else:
            t += 1
    return intervals


def random_instance(rng, max_t=8, max_v=4):
    v = rng.randint(1, max_v)
    t_frames = rng.randint(1, max_t)
    token_len = rng.randint(1, 4)
    tokens = [rng.randrange(v) for _ in range(token_len)]
    repeats = sum(1 for x, y in zip(tokens, tokens[1:]) if x == y)
    if len(tokens) + repeats > t_frames:
        return None
    matrix = np.array(
        [[rng.uniform(0.05, 1.0) for _ in range(v + 1)] for _ in range(t_frames)]
    )
    matrix /= matrix.sum(axis=1, keepdims=True)
    return FramePosteriors(matrix, 0.01), TokenSequence(tuple(tokens))


def test_single_token_certain_every_frame():
    matrix = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    post = FramePosteriors(matrix, 0.02)
    timings = ctc_align(post, TokenSequence((0,)))
    assert len(timings) == 1
    tt = timings[0]
    assert (tt.position, tt.start_frame, tt.end_frame) == (1, 0, 3)
    assert tt.score == 1.0


def test_empty_tokens_infeasible():
    post = FramePosteriors(np.full((3, 3), 1 / 3), 0.01)
    with pytest.raises(InfeasibleAlignment):
        ctc_align(post, None)


def test_too_many_tokens_infeasible():
    post = FramePosteriors(np.full((2, 3), 1 / 3), 0.01)
    with pytest.raises(InfeasibleAlignment):
        ctc_align(post, TokenSequence((0, 1, 0)))
    # repeated tokens need a blank in between: 2 tokens + 1 repeat > 2 frames
    with pytest.raises(InfeasibleAlignment):
        ctc_align(post, TokenSequence((0, 0)))


def test_token_id_outside_vocab_rejected():
    post = FramePosteriors(np.full((4, 3), 1 / 3), 0.01)
    with pytest.raises(ValidationError):
        ctc_align(post, TokenSequence((2,)))  # id 2 is the blank column


def test_two_token_instance_matches_enumeration():
    rng = random.Random(99)
    matrix = np.array([[rng.uniform(0.05, 1.0) for _ in range(4)] for _ in range(4)])
    matrix /= matrix.sum(axis=1, keepdims=True)
    post = FramePosteriors(matrix, 0.01)
    tokens = TokenSequence((0, 2))
    timings = ctc_align(post, tokens)
    best, paths = brute_force_best_path(post.matrix, tokens.ids)
    got_prob = math.prod(
        post.matrix[t, tokens.ids[pos - 1]]
        for pos, start, end in ((tt.position, tt.start_frame, tt.end_frame) for tt in timings)
        for t in range(start, end)
    )
    # probability over label frames only says little; compare full path prob
    dp_intervals = [(tt.position, tt.start_frame, tt.end_frame) for tt in timings]
    assert any(path_to_intervals(p, tokens.ids) == dp_intervals for p in paths)
    assert got_prob > 0


@pytest.mark.parametrize("seed", range(60))
def test_dp_equals_brute_force(seed):
    rng = random.Random(seed)
    instance = random_instance(rng)
    if instance is None:
        return
    post, tokens = instance
    timings = ctc_align(post, tokens)
    best, paths = brute_force_best_path(post.matrix, tokens.ids)
    assert best is not None
    # reconstruct the DP path probability from its intervals plus blanks
    covered = {}
    for tt in timings:
        for t in range(tt.start_frame, tt.end_frame):
            covered[t] = tokens.ids[tt.position - 1]
    dp_prob = 1.0
    for t in range(post.n_frames):
        dp_prob *= post.matrix[t, covered.get(t, post.blank_id)]
    assert dp_prob == pytest.approx(best, rel=1e-9)
    if len(paths) == 1:
        expected = path_to_intervals(paths[0], tokens.ids)
        assert [(tt.position, tt.start_frame, tt.end_frame) for tt in timings] == expected


@pytest.mark.parametrize("seed", range(20))
def test_intervals_tile_ordered_subset(seed):
    rng = random.Random(1000 + seed)
    instance = random_instance(rng, max_t=8, max_v=4)
    if instance is None:
        return
    post, tokens = instance
    timings = ctc_align(post, tokens)
    assert [tt.position for tt in timings] == list(range(1, len(tokens) + 1))
    prev_end = 0
    for tt in timings:
        assert 0 <= tt.start_frame < tt.end_frame <= post.n_frames
        assert tt.start_frame >= prev_end
        prev_end = tt.end_frame
        assert 0.0 <= tt.score <= 1.0


def test_deterministic_tie_break():
    matrix = np.full((4, 3), 1 / 3)
    post = FramePosteriors(matrix, 0.01)
    tokens = TokenSequence((0,))
    a = ctc_align(post, tokens)
    b = ctc_align(post, tokens)
    assert a == b


def test_long_matrix_no_underflow():
    t_frames = 100_000
    rng = np.random.default_rng(0)
    matrix = rng.uniform(0.05, 1.0, size=(t_frames, 3))
    matrix /= matrix.sum(axis=1, keepdims=True)
    post = FramePosteriors(matrix, 0.01)
    timings = ctc_align(post, TokenSequence((0, 1)))
    assert len(timings) == 2
    for tt in timings:
        assert tt.score > 0.0
    # the probability-domain path product underflows at this length
    assert 0.5 ** t_frames == 0.0


def test_zero_probability_paths_infeasible():
    matrix = np.array([[0.0, 1.0], [0.0, 1.0]])  # token 0 never emitted
    post = FramePosteriors(matrix, 0.01)
    with pytest.raises(InfeasibleAlignment):
        ctc_align(post, TokenSequence((0,)))


def test_memory_stays_near_one_byte_per_trellis_cell():
    """Log emissions are computed one frame at a time, so the only T x S
    array is the uint8 back-pointers: at T = 3,000 frames and L = 800
    tokens (S = 1,601 states) the peak stays below 2 bytes per cell, where
    a whole float64 emission table alone would take 8."""
    rng = np.random.default_rng(0)
    t_frames, vocab, n_tokens = 3000, 50, 800
    post = FramePosteriors(rng.dirichlet(np.full(vocab + 1, 0.3), size=t_frames), 0.01)
    tokens = TokenSequence(tuple(int(x) for x in rng.integers(0, vocab, size=n_tokens)))
    tracemalloc.start()
    try:
        timings = ctc_align(post, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t.position for t in timings] == list(range(1, n_tokens + 1))
    assert peak < 2 * t_frames * (2 * n_tokens + 1)


def test_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    matrix = rng.uniform(0.01, 1.0, size=(5, 4))
    matrix /= matrix.sum(axis=1, keepdims=True)
    post = FramePosteriors(matrix, 0.025)
    path = tmp_path / "p.ctcp"
    write_frame_posteriors(path, post)
    loaded = read_frame_posteriors(path)
    assert loaded.frame_shift_sec == post.frame_shift_sec
    assert np.allclose(loaded.matrix, post.matrix, atol=1e-6)


def test_read_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ctcp"
    bad.write_bytes(b"NOTCTCP whatever")
    with pytest.raises(ValidationError):
        read_frame_posteriors(bad)
    truncated = tmp_path / "trunc.ctcp"
    import struct

    truncated.write_bytes(b"CTCP1" + struct.pack("<IId", 4, 2, 0.01) + b"\x00" * 10)
    with pytest.raises(ValidationError):
        read_frame_posteriors(truncated)
