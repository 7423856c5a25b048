#!/usr/bin/env python3
"""Independent transcription of the benchmark's mini-C programs.

This file is where testdata/expected.json comes from. It shares no code
with the compiler, the interpreter or the Go sources in sources.go: each
function below is the C program read by hand into Python. All values stay
non-negative and far below 2**63, so Python integers and C's 64-bit `int`
with truncating `%` agree.

    python3 benchmark/testdata/reference.py > benchmark/testdata/expected.json
"""
import json


def parallel(n):
    b = [(i * 7 + 3) % 4093 + 1 for i in range(n)]
    a = [0] * n
    for i in range(n):
        x = b[i]
        y = x * 3 + i
        z = (x * x + y * y) % 65521
        w = (z * 13 + x * 7) % 4093
        a[i] = z + w * 2 + y % 127
    s = 0
    for i in range(n):
        u = a[i] * b[i] + i
        v = (u % 8191) * (a[i] % 31 + 1)
        s = s + u % 127 + v % 61
    t = 0
    for i in range(n):
        p = (a[i] + b[i]) * 5 + i * 11
        q = (p * p) % 32749
        t = t + q % 53
    return s, t


def pipeline(n):
    b = [(i * 7 + 3) % 4093 + 1 for i in range(n)]
    c = [0] * n
    acc = 1
    for i in range(n):
        x = b[i]
        t1 = x * 3 + i
        t2 = (t1 * t1 + x) % 65521
        t3 = t2 * 5 + t1
        t4 = (t3 * t3 + t2) % 32749
        t5 = t4 * 7 + t3
        t6 = (t5 * t5 + t4) % 16381
        t7 = t6 * 11 + t5
        t8 = (t7 * t7 + t6) % 8191
        t9 = t8 * 13 + t7
        t10 = (t9 * t9 + t8) % 4093
        acc = (acc * 3 + t10) % 65521
        c[i] = t10 + t8 % 127
    s = sum(v % 31 for v in c)
    return acc, s


def program(values):
    """Output text and exit code of a main that prints each value on its
    own line and returns their sum modulo 251."""
    return {"output": "".join("%d\n" % v for v in values), "exit": sum(values) % 251}


def main():
    expected = {
        "parallel-65536": program(parallel(65536)),
        "pipeline-65536": program(pipeline(65536)),
        "auto_mix-32768": program(parallel(32768) + pipeline(32768)),
        "auto_mix-16384": program(parallel(16384) + pipeline(16384)),
    }
    print(json.dumps(expected, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
