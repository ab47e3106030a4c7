#!/usr/bin/env python3
"""Time duorth's kernel on its dominant primitives.

Each case drives the kernel module (duorth.backend.kernel) directly and
reports the best of --repeat runs. End-to-end timings come from
perfbench/run.py.

Usage: python bench/bench_kernels.py [--repeat N]
"""
import argparse
import random
import time

from duorth.backend import kernel


def make_inputs(kernel, seed, count, size):
    rng = random.Random(seed)
    vecs = []
    for _ in range(count):
        vecs.append(tuple(kernel.Rat(rng.randint(-30, 30), rng.randint(1, 15))
                          for _ in range(size)))
    return vecs


def bench(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def scalar_chain(kernel, vecs):
    acc = kernel.Rat(0)
    for v in vecs:
        for x in v:
            acc = acc + x * x
    return acc


def poly_products(kernel, vecs):
    out = ()
    for a, b in zip(vecs, vecs[1:]):
        out = kernel.pmul(a, b)
    return out


def recurrence_walk(kernel, vecs):
    # x * p - c * q chains, the shape of four-term recurrence generation
    x = (kernel.Rat(0), kernel.Rat(1))
    p, q = (kernel.Rat(1),), (kernel.Rat(1), kernel.Rat(1))
    for v in vecs:
        c = v[0]
        p, q = q, kernel.psub(kernel.pmul(x, q), kernel.pscale(p, c))
    return q


def moment_chain(kernel, vecs):
    m = vecs[0] + vecs[1]
    f = vecs[2][:4]
    for _ in range(60):
        w = kernel.mleft(f, m)
        w = kernel.mderive(w)
        kernel.mact(w[:8], m)
    return w


CASES = (
    ("rational scalar chain", scalar_chain, 40, 60),
    ("dense poly products (deg 24)", poly_products, 30, 25),
    ("four-term recurrence walk", recurrence_walk, 120, 6),
    ("moment transpose chain", moment_chain, 4, 24),
)

def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    for label, fn, count, size in CASES:
        vecs = make_inputs(kernel, 7, count, size)
        seconds = bench(lambda: fn(kernel, vecs), args.repeat)
        print(f"{label:34} {seconds * 1e3:10.2f}ms")


if __name__ == "__main__":
    main()
