"""Frame-synchronous baseline: Viterbi alignment over a blank-interleaved
trellis of frame-wise token posteriors.

The dynamic program runs in log space, so probabilities never underflow
even for very long posterior matrices. Repeated-token transitions follow
the standard rule (a blank is mandatory between identical consecutive
labels) and ties break toward staying in the current state.

Posteriors come in one file format, ``.ctcp``: the magic ``CTCP1``, then
little-endian uint32 T, uint32 V and float64 frame shift in seconds, then
T rows of V+1 float32 probabilities (blank last).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import LsalignError, Record, TokenSequence, ValidationError, _set

ROW_SUM_TOLERANCE = 1e-6
MAGIC = b"CTCP1"


class InfeasibleAlignment(LsalignError):
    """No valid path: token sequence too long for the frame count, or every
    candidate path has zero probability."""


class FramePosteriors(Record):
    """T frames of probabilities over V tokens plus blank (last column)."""

    __slots__ = ("matrix", "frame_shift_sec")

    def __init__(self, matrix: np.ndarray, frame_shift_sec: float) -> None:
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 2:
            raise ValidationError(f"posterior matrix must be T x (V+1), got shape {m.shape}")
        if not frame_shift_sec > 0:  # NaN too
            raise ValidationError(f"frame_shift_sec must be positive, got {frame_shift_sec}")
        if np.any(m < 0):
            raise ValidationError("posterior matrix has negative entries")
        sums = m.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE)[0]
        if bad.size:
            raise ValidationError(
                f"posterior row {int(bad[0])} sums to {sums[bad[0]]!r}, expected 1"
            )
        m.setflags(write=False)
        _set(self, "matrix", m)
        _set(self, "frame_shift_sec", frame_shift_sec)

    @property
    def n_frames(self) -> int:
        return self.matrix.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[1] - 1

    @property
    def blank_id(self) -> int:
        return self.matrix.shape[1] - 1


class TokenTiming(Record):
    __slots__ = ("position", "start_frame", "end_frame", "score")

    def __init__(self, position: int, start_frame: int, end_frame: int, score: float) -> None:
        _set(self, "position", position)  # 1-based transcript position
        _set(self, "start_frame", start_frame)
        _set(self, "end_frame", end_frame)  # half-open
        _set(self, "score", score)


def ctc_align(post: FramePosteriors, tokens: TokenSequence | None) -> list[TokenTiming]:
    """Max-probability monotonic alignment of tokens to frames.

    Returns one half-open frame interval per token, in order; the per-token
    score is the minimum per-frame probability of that token over its
    interval (a conservative quality gate).
    """
    if tokens is None or len(tokens) == 0:
        raise InfeasibleAlignment("token sequence is empty")
    labels = list(tokens.ids)
    blank = post.blank_id
    for tok in labels:
        if not 0 <= tok < post.vocab_size:
            raise ValidationError(f"token id {tok} outside posterior vocabulary")
    repeats = sum(1 for x, y in zip(labels, labels[1:]) if x == y)
    t_frames = post.n_frames
    if len(labels) + repeats > t_frames:
        raise InfeasibleAlignment(
            f"{len(labels)} tokens ({repeats} repeats) cannot fit in {t_frames} frames"
        )

    expanded = [blank]
    for tok in labels:
        expanded.append(tok)
        expanded.append(blank)
    expanded_arr = np.asarray(expanded)
    n_states = len(expanded)

    def emit(t: int) -> np.ndarray:
        # one frame's log emissions at a time: the back-pointers, one byte
        # per trellis cell, are then the only T x S array
        with np.errstate(divide="ignore"):
            return np.log(post.matrix[t, expanded_arr])

    neg_inf = -np.inf
    # skip transition s-2 -> s allowed only into a non-blank differing from s-2
    allow_skip = np.zeros(n_states, dtype=bool)
    for s in range(2, n_states):
        allow_skip[s] = expanded[s] != blank and expanded[s] != expanded[s - 2]

    alpha = np.full(n_states, neg_inf)
    alpha[:2] = emit(0)[:2]
    back = np.zeros((t_frames, n_states), dtype=np.uint8)  # 0=stay, 1=from s-1, 2=from s-2
    for t in range(1, t_frames):
        stay = alpha
        from1 = np.concatenate(([neg_inf], alpha[:-1]))
        from2 = np.concatenate(([neg_inf, neg_inf], alpha[:-2]))
        from2 = np.where(allow_skip, from2, neg_inf)
        stacked = np.vstack((stay, from1, from2))
        choice = np.argmax(stacked, axis=0)  # first max: ties stay put
        back[t] = choice
        alpha = stacked[choice, np.arange(n_states)] + emit(t)

    # n_states = 2L+1 >= 3; valid endings are the final blank or final label
    best_final = n_states - 1 if alpha[n_states - 1] >= alpha[n_states - 2] else n_states - 2
    if not np.isfinite(alpha[best_final]):
        raise InfeasibleAlignment("every feasible path has zero probability")

    states = np.empty(t_frames, dtype=np.int64)
    states[-1] = best_final
    for t in range(t_frames - 1, 0, -1):
        states[t - 1] = states[t] - back[t, states[t]]

    timings: list[TokenTiming] = []
    t = 0
    while t < t_frames:
        s = int(states[t])
        if s % 2 == 1:  # label state
            start = t
            while t < t_frames and int(states[t]) == s:
                t += 1
            position = (s + 1) // 2
            token_id = labels[position - 1]
            score = float(np.min(post.matrix[start:t, token_id]))
            timings.append(TokenTiming(position, start, t, score))
        else:
            t += 1
    return timings


HEADER = struct.Struct("<IId")  # T, V, frame shift


def write_frame_posteriors(path: str | Path, post: FramePosteriors) -> None:
    """Write posteriors as a ``.ctcp`` file (see the module docstring)."""
    t_frames, cols = post.matrix.shape
    with Path(path).open("wb") as fp:
        fp.write(MAGIC)
        fp.write(HEADER.pack(t_frames, cols - 1, post.frame_shift_sec))
        fp.write(post.matrix.astype("<f4").tobytes(order="C"))


def read_frame_posteriors(path: str | Path) -> FramePosteriors:
    """Load a ``.ctcp`` file; rows are renormalized to absorb float32 rounding."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    if not blob.startswith(MAGIC):
        raise ValidationError(f"{path}: not a posterior file (bad magic)")
    if len(blob) < len(MAGIC) + HEADER.size:
        raise ValidationError(f"{path}: file ends inside its header after {len(blob)} bytes")
    t_frames, v, frame_shift = HEADER.unpack_from(blob, len(MAGIC))
    body = blob[len(MAGIC) + HEADER.size :]
    expected = t_frames * (v + 1) * 4
    if len(body) != expected:
        raise ValidationError(f"{path}: payload is {len(body)} bytes, expected {expected}")
    matrix = np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(t_frames, v + 1)
    sums = matrix.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise ValidationError(f"{path}: non-positive posterior row sum")
    return FramePosteriors(matrix / sums, frame_shift)
