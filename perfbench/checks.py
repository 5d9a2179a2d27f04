"""Output checks for every benchmark command.

Fixed-input count commands must reproduce the stdout digest recorded for
their format (the CLI promises byte-identical output).  ``constant`` is
checked by value against an mpmath evaluation of the residual series over
level increments computed here, apart from adjhier, so a change to which
digits are printed still passes when every printed digit is right.
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal
from pathlib import Path

import mpmath

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def digest_key(args, fmt: str) -> str:
    return " ".join(list(args) + ["--format", fmt])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def level_increments(n_max: int) -> list:
    """c(0..n_max), new sets per level, from the b(n, m) recurrence.

    Written apart from adjhier (math.comb for the binomials, a dict for
    the triangle) so the constant check does not share its counting path.
    """
    b = {(n, -1): int(n == 0) for n in range(n_max + 1)}
    c, a = [1], [1]
    for m in range(n_max):
        cm, am = c[m], a[m]
        for n in range(m + 1, n_max + 1):
            s = b[(n, m - 1)] + math.comb(cm, n - m) * am
            s += sum(b[(n - k, m - 1)] * math.comb(cm, k)
                     for k in range(1, n - m))
            b[(n, m)] = s
        c.append(b[(m + 1, m)])
        a.append(a[-1] + c[-1])
    return c


def _constant_fields(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    sep = "," if fmt == "csv" else "\t"
    lines = text.splitlines()[1 if fmt == "csv" else 0:]
    return dict(line.split(sep, 1) for line in lines)


class OutputChecker:
    """Checks one command's exit code and stdout; returns a failure reason."""

    def __init__(self):
        self.digests = json.loads(DIGESTS_PATH.read_text())
        self._constants = {}

    def check(self, step, code: int, stdout: bytes):
        if code != 0:
            return f"exit code {code}"
        kind = step.command.check
        if kind == "digest":
            key = digest_key(step.command.args, step.fmt)
            if sha256(stdout) != self.digests[key]:
                return f"stdout digest differs from the recorded one for {key!r}"
        elif kind == "constant":
            return self._check_constant(stdout.decode(), step.fmt)
        return None

    def _reference(self, terms: int, digits: int):
        """exp(sum_{k=2}^{terms} (ln c(k) - 2 ln c(k-1)) / 2**k)."""
        key = (terms, digits)
        if key not in self._constants:
            c = level_increments(terms)
            with mpmath.workdps(digits + 40):
                logs = [mpmath.log(mpmath.mpf(v)) for v in c]
                total = mpmath.fsum((logs[k] - 2 * logs[k - 1]) / 2 ** k
                                    for k in range(2, terms + 1))
                self._constants[key] = mpmath.exp(total)
        return self._constants[key]

    def _check_constant(self, text: str, fmt: str):
        try:
            doc = _constant_fields(text, fmt)
            shown = Decimal(doc["C"])
            radius = Decimal(doc["error_radius"])
            terms = int(doc["terms_used"])
        except (ValueError, KeyError, ArithmeticError) as exc:
            return f"constant output does not parse: {exc}"
        digits = len(shown.as_tuple().digits)
        ulp = Decimal(1).scaleb(shown.as_tuple().exponent)
        with mpmath.workdps(digits + 40):
            miss = abs(mpmath.mpf(str(shown)) - self._reference(terms, digits))
            if miss > mpmath.mpf(str(radius + ulp)):
                return (f"constant {str(shown)[:20]}... is {mpmath.nstr(miss, 3)} "
                        f"from the reference, beyond radius {radius} + 1 ulp")
        return None
