"""Independent straight-line modular arithmetic used to cross-check the
credential scheme. Deliberately avoids the package under test: its own
extended-gcd inverse and its own square-and-multiply exponentiation.
"""

from __future__ import annotations


def egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_r, old_s, old_t


def inverse(a: int, n: int) -> int:
    g, x, _ = egcd(a % n, n)
    if g != 1:
        raise ValueError("not invertible")
    return x % n


def modpow(base: int, exp: int, n: int) -> int:
    if exp < 0:
        base = inverse(base, n)
        exp = -exp
    result = 1
    base %= n
    while exp:
        if exp & 1:
            result = result * base % n
        base = base * base % n
        exp >>= 1
    return result


def commitment_value(n: int, S: int, R0: int, v_prime: int, k: int) -> int:
    """U = S^v' * R0^k mod n."""
    return modpow(S, v_prime, n) * modpow(R0, k, n) % n


def signature_check_value(
    n: int, A: int, e: int, v: int, k: int, S: int, R: tuple[int, ...], ms: list[int]
) -> int:
    """A^e * S^v * R0^k * prod_i R(i+1)^ms[i] mod n; equals Z for a valid credential."""
    acc = modpow(A, e, n)
    acc = acc * modpow(S, v, n) % n
    acc = acc * modpow(R[0], k, n) % n
    for base, m in zip(R[1:], ms):
        acc = acc * modpow(base, m, n) % n
    return acc


def issue_signature_part(
    n: int,
    p: int,
    q: int,
    Z: int,
    S: int,
    R: tuple[int, ...],
    U: int,
    e: int,
    v_dprime: int,
    ms: list[int],
) -> int:
    """Recompute A = (Z / (U * S^v'' * prod Ri^mi))^(e^-1 mod p'q') mod n."""
    order = ((p - 1) // 2) * ((q - 1) // 2)
    denom = U * modpow(S, v_dprime, n) % n
    for base, m in zip(R[1:], ms):
        denom = denom * modpow(base, m, n) % n
    Q = Z * inverse(denom, n) % n
    return modpow(Q, inverse(e, order), n)


def issue_proof_commitment(n: int, S: int, R0: int, U: int, s_v: int, s_k: int, c: int) -> int:
    """The issuer's recomputed T = S^s_v * R0^s_k * U^-c mod n."""
    return modpow(S, s_v, n) * modpow(R0, s_k, n) % n * modpow(U, -c, n) % n


def presentation_commitment(
    n: int,
    S: int,
    Z: int,
    R: tuple[int, ...],
    a_prime: int,
    s_e: int,
    s_v: int,
    s_k: int,
    s_m: dict[int, int],
    disclosed_ms: dict[int, int],
    c: int,
    l_e: int,
) -> int:
    """The verifier's recomputed T = A'^(s_e + c*2^(l_e-1)) * S^s_v * R0^s_k
    * prod_hidden Ri^s_i * (Z / prod_disclosed Rj^mj)^-c mod n, where s_e
    answers for e - 2^(l_e-1)."""
    acc = modpow(a_prime, s_e + c * 2 ** (l_e - 1), n)
    acc = acc * modpow(S, s_v, n) % n * modpow(R[0], s_k, n) % n
    for i, s in s_m.items():
        acc = acc * modpow(R[i], s, n) % n
    divisor = 1
    for j, m in disclosed_ms.items():
        divisor = divisor * modpow(R[j], m, n) % n
    z_d = Z * inverse(divisor, n) % n
    return acc * modpow(z_d, -c, n) % n
