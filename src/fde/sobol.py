"""The scrambled Sobol draw of :func:`fde.lazer_leach.sphere_samples`, with numpy
alone; imported on first use, so no command, solve or certificate compiles it."""

import math
import operator
from functools import cache

import numpy as np

# Joe & Kuo (SIAM J. Sci. Comput. 30, 2008): the primitive polynomials and
# initial direction numbers of Sobol dimensions 2 to 8; dimension 1 has
# every m_j = 1.
_SOBOL_POLYS = (3, 7, 11, 13, 19, 25, 37)
_SOBOL_INIT = ((1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
               (1, 1, 5, 5, 17))
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _default_rng_uint32s(seed: int, count: int) -> list:
    """The first ``count`` uint32 of numpy's ``default_rng(seed)``, bit for bit:
    SeedSequence hashes and mixes the seed's 32-bit words into four uint64 that
    seed PCG64 (O'Neill 2014), a 128-bit LCG with XSL-RR output, low half first."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(x):
        nonlocal h
        x = (x ^ h) * (h := h * mult & _M32) & _M32
        return x ^ x >> 16

    pool = [hashmix(w) for w in (words + [0] * 3)[:4]] + words[4:]
    for src, dst in ((s, t) for s in range(len(pool)) for t in range(4) if s != t):
        x = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _M32
        pool[dst] = x ^ x >> 16
    h, mult = 0x8B51F9DD, 0x58F38DED
    w = [hashmix(pool[i]) | hashmix(pool[i + 1]) << 32 for i in (0, 2, 0, 2)]
    inc = (w[2] << 65 | w[3] << 1 | 1) & _M128
    state, out = (inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc & _M128, []
    for _ in range(-(-count // 2)):
        state = state * _PCG_MULT + inc & _M128
        x = (state >> 64 ^ state) & _M64
        x = (x | x << 64) >> (state >> 122) & _M64
        out += [x & _M32, x >> 32]
    return out[:count]


@cache
def _sobol_scramble(d: int, seed: int):
    if not 1 <= d <= len(_SOBOL_POLYS) + 1:
        raise ValueError(f"scrambled Sobol points need 1 <= d <= 8, got d = {d}")
    B = 30                      # bits of a direction number, as in scipy
    rows = [[1] * B]
    for poly, init in zip(_SOBOL_POLYS[:d - 1], _SOBOL_INIT):
        s, mj = len(init), list(init)
        for j in range(s, B):
            new = mj[j - s] ^ mj[j - s] << s
            for k in range(1, s):
                if poly >> (s - k) & 1:
                    new ^= mj[j - k] << k
            mj.append(new)
        rows.append(mj)
    pos = np.arange(B - 1, -1, -1)
    v = np.array(rows, dtype=np.int64) << pos
    bits = np.array(_default_rng_uint32s(seed, d * B * (B + 1)), dtype=np.int64) >> 31
    shift = bits[:d * B].reshape(d, B) @ (1 << pos[::-1])
    ltm = np.tril(bits[d * B:].reshape(d, B, B), -1) + np.eye(B, dtype=np.int64)
    # bit B-1-p of the scrambled v[d, j] is the parity of row p of ltm[d]
    # times the bits B-1-k of v[d, j]
    v = ((v[:, :, None] >> pos & 1) @ ltm.transpose(0, 2, 1) & 1) @ (1 << pos)
    shift.flags.writeable = v.flags.writeable = False
    return shift, v


def _sobol_points(d: int, m: int, seed: int) -> np.ndarray:
    """The first ``2^m`` points of ``scipy.stats.qmc.Sobol(d, scramble=True,
    seed=seed)``, bit for bit, for ``d <= 8``: Gray-code Sobol points of
    the direction numbers after a random lower-triangular GF(2) matrix
    scramble (LMS) of each dimension, XORed with a random digital shift, both
    cached per ``(d, seed)`` and drawn from ``default_rng(seed)`` in scipy's
    order: its ``integers(2)`` is Lemire's draw, bit 31 of one uint32."""
    shift, v = _sobol_scramble(d, operator.index(seed))
    i = np.arange(1 << m)
    on = ((i ^ i >> 1)[:, None] >> np.arange(m) & 1).astype(bool)
    x = shift ^ np.bitwise_xor.reduce(np.where(on[:, :, None], v[:, :m].T, 0), axis=1)
    return x * 2.0 ** -30


# Cephes ndtri (S. Moshier): rational approximations of the standard normal
# quantile on |y - 1/2| <= 3/8, and in z = 1/x, x = sqrt(-2 ln y), for x in
# [2, 8) and [8, 64).  Each denominator leads with its implicit 1.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189


def _polevl(x: float, coef) -> float:
    """``coef[0] x^n + ... + coef[n]`` by Horner's rule, as Cephes sums it."""
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Standard normal quantile of ``0 < y < 1``, bit for bit
    ``scipy.special.ndtri``: Cephes' three rational approximations."""
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    elif y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    P, Q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _polevl(z, P) / _polevl(z, Q)
    return x if upper else -x


@cache
def _sobol_amps(nu: int, count: int, seed: int) -> np.ndarray:
    """Read-only ``(count, nu)`` amplitudes of L2-unit kernel elements from
    the scrambled Sobol points of ``R^{2 nu}`` (:func:`_sobol_points`,
    ``2 nu <= 8``) through the Gaussian quantile, drawn once per process."""
    if nu < 1 or count < 1:
        raise ValueError("need nu >= 1 and count >= 1")
    m = int(np.ceil(np.log2(max(count, 2))))
    x = np.clip(_sobol_points(2 * nu, m, seed)[:count], 1e-12, 1.0 - 1e-12)
    z = np.array([_ndtri(y) for y in x.ravel().tolist()]).reshape(x.shape)
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    z = z / norms[:, None]
    amps = (z[:, :nu] + 1j * z[:, nu:]) / np.sqrt(2.0)
    amps.flags.writeable = False
    return amps
