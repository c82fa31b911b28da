"""Closed curve values pinned by digest: every admissible curve (M, k/48),
M = 0..20, k = -200..299, with gamma exact (Fraction(k, 48)) and as its
float twin (k / 48).

On each curve the digest reads eigen_beta_closed for every l,
beta_tilde_on_curve, beta_on_curve, the entries of reduced_matrix, and
eigenfunction_poly for every even l where M + 3 gamma != 0 (an error it
raises there is read as its type and message).  A value's type and str()
enter the digest, so a Fraction that becomes a float, or a float that moves
by one ulp, changes it.  DIGESTS holds the SHA-256 of the values as they
were before curve_point became the only curve rule; the tier-1 suite checks
the slices in SLICE_DIGESTS, this script checks the whole range (about a
minute):

    PYTHONPATH=src python tests/curve_values.py
"""
import hashlib
import sys
from fractions import Fraction

import slespec as S

K_RANGE = range(-200, 300)

# (exact, M_max) -> (admissible curves with M <= M_max, SHA-256 of their values)
DIGESTS = {
    (True, 20): (9123, "956ca0d2156140c85a3e99cffcc166a6649951114e123ca698474e6ec7bfea4e"),
    (False, 20): (9123, "e8300be84d90f997dca8725c0f3253c7fcc986856bcee489acd73faa9906feb5"),
}
SLICE_DIGESTS = {
    (True, 3): (1271, "dc4ab2c7318d6c5c2899783229acb397353ba4b8c1cab4cee8400b30377727ae"),
    (False, 6): (2411, "4049da6f84d9d41c71fe055acc057943ded7225238225ce985d4a8d6095dc86d"),
}


def _token(x) -> str:
    return f"{type(x).__name__}:{x}"


def curve_values(c):
    """Tokens of every closed value on the admissible curve c."""
    M = c.M
    vals = [S.eigen_beta_closed(c, l) for l in range(2 * M + 1)]
    vals += [S.beta_tilde_on_curve(c), S.beta_on_curve(c)]
    vals += [x for row in S.reduced_matrix(S.build_system(c)) for x in row]
    out = [_token(v) for v in vals]
    if M + 3 * c.gamma != 0:
        for l in range(0, 2 * M + 1, 2):
            try:
                out += [_token(v) for v in S.eigenfunction_poly(c, l)]
            except ValueError as exc:
                out.append(f"raise:{type(exc).__name__}:{exc}")
    return out


def digest(exact: bool, M_max: int):
    """(admissible curves, SHA-256 of their values) for M = 0..M_max."""
    h, curves = hashlib.sha256(), 0
    for M in range(M_max + 1):
        for k in K_RANGE:
            c = S.CurveParams(M, Fraction(k, 48) if exact else k / 48)
            try:
                S.curve_point(c)
            except S.InvalidCurveError:
                continue
            curves += 1
            h.update(f"{M} {k} {' '.join(curve_values(c))}\n".encode())
    return curves, h.hexdigest()


def main() -> int:
    bad = 0
    for key, want in DIGESTS.items():
        got = digest(*key)
        ok = got == want
        bad += not ok
        print(f"curve values, exact={key[0]}, M <= {key[1]}: {got[0]} curves, "
              f"{'match' if ok else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
