"""Reproducible sampling of V_n = f(U) sin(nU), U uniform on (0,1).

The uniform stream is counter-based (Philox keyed by the seed), so any
chunking of the index range reproduces the sequential stream bit for
bit; parallel workers therefore cannot change the output. Note the sine
argument is n*u with u in (0,1), not n*pi*u.
"""

import math
import os
import warnings

import numpy as np

from .errors import ConvergenceError
from .limitlaw import ParamFunction

__all__ = ["SampleBatch", "sample_vn", "builtin_f", "uniform_stream"]

_CLAMP = 2.0 ** -53
_CHUNK = 1 << 16


class SampleBatch:
    """Realizations of V_n with full provenance."""

    def __init__(self, values: np.ndarray, n: int, count: int, seed: int,
                 f_id: str, resamples: int = 0):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.shape != (count,):
            raise ValueError("values length must equal count")
        self.n, self.count, self.seed = n, count, seed
        self.f_id, self.resamples = f_id, resamples


def uniform_stream(seed, start, n):
    """Doubles [start, start+n) of the seed-keyed counter-based stream.

    Philox advances its 128-bit counter in blocks of four 64-bit words
    and each double consumes one word, so positioning needs the block
    advance plus a word-level discard. The seed is the key, in [0, 2^64).
    """
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ValueError(f"seed {seed!r} is not an integer in [0, 2^64)")
    bg = np.random.Philox(key=np.uint64(seed))
    blocks, rem = divmod(start, 4)
    bg.advance(blocks)
    gen = np.random.Generator(bg)
    if rem:
        gen.integers(0, 2**64, size=rem, dtype=np.uint64)
    return gen.random(n)


def _workers():
    try:
        return max(1, int(os.environ.get("SINELAW_WORKERS", "1")))
    except ValueError:
        return 1


def sample_vn(f: ParamFunction, n: int, count: int, seed: int,
              chunk_size: int = _CHUNK):
    """Draw `count` realizations of f(U) sin(nU), deterministically.

    Draws where f evaluates non-finite are resampled from the stream
    positions past `count` (in order, so chunking stays irrelevant); a
    resample fraction above 0.1% triggers a warning, and more than
    max(1000, count) resamples raise ConvergenceError.
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")

    def draw(start, size):
        u = uniform_stream(seed, start, size)
        np.clip(u, _CLAMP, 1.0 - _CLAMP, out=u)
        return f.eval_array(u) * np.sin(n * u)

    starts = range(0, count, chunk_size)
    sizes = [min(chunk_size, count - s) for s in starts]
    nw = _workers()
    if nw > 1 and len(sizes) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=nw) as pool:
            parts = list(pool.map(draw, starts, sizes))
    else:
        parts = list(map(draw, starts, sizes))
    values = np.concatenate(parts) if len(parts) > 1 else parts[0]

    # deterministic resampling for non-finite f evaluations
    resamples = 0
    bad = np.flatnonzero(~np.isfinite(values))
    while bad.size:
        if resamples > max(1000, count):
            raise ConvergenceError(
                f"f failed to evaluate finitely after {resamples} resamples")
        values[bad] = draw(count + resamples, bad.size)
        resamples += bad.size
        bad = bad[~np.isfinite(values[bad])]
    if resamples > 0.001 * count:
        warnings.warn(f"{resamples} resamples for {count} draws; "
                      "f evaluates non-finite unusually often")

    return SampleBatch(values=values, n=n, count=count, seed=seed,
                       f_id=f.f_id, resamples=resamples)


_SQRT_PI_2 = math.sqrt(math.pi / 2.0)


def builtin_f(name: str) -> ParamFunction:
    """Built-in parameter functions: 'gaussian', 'cauchy', 'const:<c>'.

    gaussian: f(u) = sqrt(-2 ln u), the limit law is standard normal.
    cauchy:   f(u) = sqrt(pi/2) sqrt(1-u^2)/u, the limit law is
              Cauchy(0, sqrt(pi/2)).
    const:c   f == c, the limit law is that of c*sin(Theta) with Theta
              uniform; characteristic function J0(ct).
    """
    if name == "gaussian":
        return ParamFunction(
            eval=lambda u: np.sqrt(-2.0 * np.log(u)),
            epsilon_f=-1,
            inverse=lambda t: np.exp(-0.5 * np.square(t)),
            f_id="gaussian")
    if name == "cauchy":
        return ParamFunction(
            eval=lambda u: _SQRT_PI_2 * np.sqrt(1.0 - np.square(u)) / u,
            epsilon_f=-1,
            inverse=lambda t: math.sqrt(math.pi) / np.sqrt(
                2.0 * np.square(t) + math.pi),
            f_id="cauchy")
    if name.startswith("const:"):
        try:
            c = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad constant in {name!r}")
        if not math.isfinite(c):
            raise ValueError(f"constant in {name!r} must be finite")
        return ParamFunction(
            eval=lambda u, c=c: np.full_like(np.asarray(u, dtype=np.float64),
                                             c), f_id=name)
    raise ValueError(f"unknown builtin f {name!r}; "
                     "use gaussian, cauchy or const:<c>")
