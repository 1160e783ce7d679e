"""Objective streams revealed by point evaluation, and the randomized
two-point gradient estimator built on Gaussian smoothing.

The estimator for a local cost f at point x with smoothing mu and random
direction xi is

    g = (f(x + mu * xi) - f(x)) / mu * xi,

which is an unbiased estimate of the gradient of the Gaussian-smoothed
surrogate f_mu when xi is standard normal.  A uniform-on-the-sphere
direction law is provided as well, but the smoothing identities are only
exact for the Gaussian law, which is the default.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


DIRECTION_LAWS = ("gaussian", "uniform_sphere")  # what OracleConfig and RunConfig accept

# Sub-stream domains under one master seed: the run's initial points,
# directions and stream coefficients.  Directions advance the spawn key by
# (agent, t) so a draw is a pure function of the triple.
_DOMAIN_INIT = 0
_DOMAIN_DIRECTION = 1
_DOMAIN_COEFF = 2

# A direction is the draw of np.random.default_rng(np.random.SeedSequence(
# entropy=rng_seed, spawn_key=(_DOMAIN_DIRECTION, agent, t))).  Building those
# two objects per key costs more than the draw itself, so a block of keys
# takes the pool of SeedSequence(rng_seed, spawn_key=(_DOMAIN_DIRECTION,))
# from numpy and finishes the key-to-state map on uint64 arrays:
# SeedSequence's uint32 hashing of the agent and t words
# (numpy/random/bit_generator.pyx), then PCG64's seeding arithmetic (pcg64.h).
_M32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _generate_state_constants() -> tuple[tuple[int, int], ...]:
    # generate_state(4, uint64) hashes 8 pool words with a multiplier that
    # advances the same way whatever the data: (xor constant, multiplier).
    pairs, hc = [], _INIT_B
    for _ in range(2 * _POOL_SIZE):
        nxt = hc * _MULT_B & _M32
        pairs.append((hc, nxt))
        hc = nxt
    return tuple(pairs)


_STATE_HASH = _generate_state_constants()


class OracleError(RuntimeError):
    """Evaluation failure in the gradient-free oracle."""


@dataclass(frozen=True)
class ObjectiveStream:
    """Family of per-agent convex costs, revealed only through evaluation.

    `evaluate(agent, t, x)` must be side-effect-free and convex in x for
    every agent and time (contract, enforced by construction for the built-in
    streams).  No gradient is ever exposed.  The point passed to `evaluate`
    is valid only during the call: at dim 1 the estimator writes its
    estimate into the shifted point's array, so a stream that keeps a point
    must copy it.  `subgradient_bound(rho)`, when given, bounds every
    agent's subgradient norm over points of norm <= rho.

    The optional hook `aggregate_evaluate(t, X)` speeds up batch work
    without changing semantics: it returns the summed-over-agents cost at
    each row of X, where `t` is one time for every row or an int array
    holding one time per row.
    """

    n_agents: int
    dim: int
    evaluate: Callable[[int, int, np.ndarray], float]
    analytic_minimizer: Callable[[int], np.ndarray] | None = None
    subgradient_bound: Callable[[float], float] | None = None
    aggregate_evaluate: Callable[[int, np.ndarray], np.ndarray] | None = None
    params: dict = field(default_factory=dict)

    def aggregate_cost(self, t, points: np.ndarray) -> np.ndarray:
        """Summed cost over all agents at each row of `points` (m, p) -> (m,),
        at time `t` (an int) or at times `t[k]` (an (m,) int array)."""
        points = np.atleast_2d(points)
        if self.aggregate_evaluate is not None:
            return np.asarray(self.aggregate_evaluate(t, points), dtype=float)
        out = np.zeros(points.shape[0])
        for k, tk in enumerate(np.broadcast_to(t, out.shape).tolist()):
            out[k] = sum(self.evaluate(j, tk, points[k]) for j in range(self.n_agents))
        return out


@dataclass(frozen=True)
class OracleConfig:
    """Per-agent smoothing parameters plus the direction sampling law."""

    mu: np.ndarray
    dim: int
    direction_law: str = "gaussian"
    rng_seed: int = 0

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError(f"mu must be 1-D with one value per agent, got shape {mu.shape}")
        if not (np.isfinite(mu) & (mu > 0)).all():
            raise ValueError("all smoothing parameters mu must be positive and finite")
        if self.direction_law not in DIRECTION_LAWS:
            raise ValueError(f"unknown direction law {self.direction_law!r}")
        for name, low in (("dim", 1), ("rng_seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def mu_hat(self) -> float:
        return float(self.mu.max())

    @classmethod
    def uniform(cls, n_agents: int, mu_hat: float, dim: int,
                direction_law: str = "gaussian", rng_seed: int = 0) -> "OracleConfig":
        return cls(mu=np.full(n_agents, float(mu_hat)), dim=dim,
                   direction_law=direction_law, rng_seed=rng_seed)


def _hashmix(value: np.ndarray, hc: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on uint64 arrays holding uint32 values: the
    hashed value and the advanced multiplier."""
    value = value ^ hc
    hc = hc * _MULT_A & _M32
    value = value * hc & _M32
    return value ^ (value >> 16), hc


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


def _absorb(pool: tuple[np.ndarray, ...], hc: int,
            words: list[np.ndarray]) -> tuple[tuple[np.ndarray, ...], int]:
    """Mix entropy words beyond the pool size into every pool word."""
    pool = list(pool)
    for word in words:
        for i in range(_POOL_SIZE):
            h, hc = _hashmix(word, hc)
            pool[i] = _mix(pool[i], h)
    return tuple(pool), hc


def _state_words(pool: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """The 8 uint32 words of generate_state(4, uint64) from an absorbed pool."""
    words = []
    for k, (pre, post) in enumerate(_STATE_HASH):
        v = (pool[k % _POOL_SIZE] ^ pre) * post & _M32
        words.append(v ^ (v >> 16))
    return words


def _draw(rng: np.random.Generator, dim: int, law: str) -> np.ndarray:
    """One direction drawn by numpy from a generator set to its key's state."""
    xi = rng.standard_normal(dim)
    if law == "uniform_sphere":
        norm = np.linalg.norm(xi)
        while norm == 0.0:  # probability-zero guard
            xi = rng.standard_normal(dim)
            norm = np.linalg.norm(xi)
        xi = xi / norm
    return xi


# Block draws redo numpy's route on uint64 arrays: the SeedSequence absorb
# of one-word agents and times, PCG64 seeding and steps on (hi, lo) halves
# with XSL-RR output, and the fast path of numpy's double ziggurat (Marsaglia &
# Tsang 2000; numpy/random/src/distributions/distributions.c).  numpy does
# not export the ziggurat tables, so they are embedded here as hex words
# (wi as IEEE-754 bits); tests/test_oracle.py recovers them again by probing
# Generator(PCG64).
_M64 = (1 << 64) - 1
_MULT_HI, _MULT_LO = _PCG64_MULT >> 64, _PCG64_MULT & _M64
_ZIGGURAT_KI = np.array([int(w, 16) for w in """
    000ef33d8025ef6a 0000000000000000 000c08be98fbc6a8 000da354fabd8142
    000e51f67ec1eeea 000eb255e9d3f77e 000eef4b817ecab9 000f19470afa44aa
    000f37ed61ffcb18 000f4f469561255c 000f61a5e41ba396 000f707a755396a4
    000f7cb2ec28449a 000f86f10c6357d3 000f8fa6578325de 000f9724c74dd0da
    000f9da907dbf509 000fa360f581fa74 000fa86fde5b4bf8 000facf160d354dc
    000fb0fb6718b90f 000fb49f8d5374c6 000fb7ec2366fe77 000fbaece9a1e50e
    000fbdab9d040bed 000fc03060ff6c57 000fc2821037a248 000fc4a67ae25bd1
    000fc6a2977aee31 000fc87aa92896a4 000fca325e4bde85 000fcbcce902231a
    000fcd4d12f839c4 000fceb54d8fec99 000fd007bf1dc930 000fd1464dd6c4e6
    000fd272a8e2f450 000fd38e4ff0c91e 000fd49a9990b478 000fd598b8920f53
    000fd689c08e99ec 000fd76ea9c8e832 000fd848547b08e8 000fd9178bad2c8c
    000fd9dd07a7add2 000fda9970105e8c 000fdb4d5dc02e20 000fdbf95c5bfcd0
    000fdc9debb99a7d 000fdd3b8118729d 000fddd288342f90 000fde6364369f64
    000fdeee708d514e 000fdf7401a6b42e 000fdff46599ed40 000fe06fe4bc24f2
    000fe0e6c225a258 000fe1593c28b84c 000fe1c78cbc3f99 000fe231e9db1caa
    000fe29885da1b91 000fe2fb8fb54186 000fe35b33558d4a 000fe3b799d0002a
    000fe410e99ead7f 000fe46746d47734 000fe4bad34c095c 000fe50baed29524
    000fe559f74ebc78 000fe5a5c8e41212 000fe5ef3e138689 000fe6366fd91078
    000fe67b75c6d578 000fe6be661e11aa 000fe6ff55e5f4f2 000fe73e5900a702
    000fe77b823e9e39 000fe7b6e37070a2 000fe7f08d774243 000fe8289053f08c
    000fe85efb35173a 000fe893dc840864 000fe8c741f0cebc 000fe8f9387d4ef6
    000fe929cc879b1d 000fe95909d388ea 000fe986fb939aa2 000fe9b3ac714866
    000fe9df2694b6d5 000fea0973abe67c 000fea329cf166a4 000fea5aab32952c
    000fea81a6d5741a 000feaa797de1cf0 000feacc85f3d920 000feaf07865e63c
    000feb13762fec13 000feb3585fe2a4a 000feb56ae3162b4 000feb76f4e284fa
    000feb965fe62014 000febb4f4cf9d7c 000febd2b8f449d0 000febefb16e2e3e
    000fec0be31ebde8 000fec2752b15a15 000fec42049dafd3 000fec5bfd29f196
    000fec75406ceef4 000fec8dd2500cb4 000feca5b6911f12 000fecbcf0c427fe
    000fecd38454fb15 000fece97488c8b3 000fecfec47f91b7 000fed1377358528
    000fed278f844903 000fed3b10242f4c 000fed4dfbad586e 000fed605498c3dd
    000fed721d414fe8 000fed8357e4a982 000fed9406a42cc8 000feda42b85b704
    000fedb3c8746ab4 000fedc2df416652 000fedd171a46e52 000feddf813c8ad3
    000feded0f909980 000fedfa1e0fd414 000fee06ae124bc4 000fee12c0d95a06
    000fee1e579006e0 000fee29734b6524 000fee34150ae4bc 000fee3e3db89b3c
    000fee47ee2982f4 000fee51271db086 000fee59e9407f41 000fee623528b42e
    000fee6a0b5897f1 000fee716c3e077a 000fee7858327b82 000fee7ecf7b06ba
    000fee84d2484ab2 000fee8a60b66343 000fee8f7accc851 000fee94207e25da
    000fee9851a829ea 000fee9c0e13485c 000fee9f557273f4 000feea22762ccae
    000feea4836b42ac 000feea668fc2d71 000feea7d76ed6fa 000feea8ce04fa0a
    000feea94be8333b 000feea950296410 000feea8d9c0075e 000feea7e7897654
    000feea678481d24 000feea48aa29e83 000feea21d22e4da 000fee9f2e352024
    000fee9bbc26af2e 000fee97c524f2e4 000fee93473c0a3a 000fee8e40557516
    000fee88ae369c7a 000fee828e7f3dfd 000fee7bdea7b888 000fee749bff37ff
    000fee6cc3a9bd5e 000fee64529e007e 000fee5b45a32888 000fee51994e57b6
    000fee474a0006cf 000fee3c53e12c50 000fee30b2e02ad8 000fee2462ad8205
    000fee175eb83c5a 000fee09a22a1447 000fedfb27e349cc 000fedebea76216c
    000feddbe422047e 000fedcb0ece39d3 000fedb964042cf4 000feda6dce938c9
    000fed937237e98d 000fed7f1c38a836 000fed69d2b9c02b 000fed538d06ae00
    000fed3c41dea422 000fed23e76a2fd8 000fed0a732fe644 000fecefda07fe34
    000fecd4100eb7b8 000fecb708956eb4 000fec98b61230c1 000fec790a0da978
    000fec57f50f31fe 000fec356686c962 000fec114cb4b335 000febeb948e6fd0
    000febc429a0b692 000feb9af5ee0cdc 000feb6fe1c98542 000feb42d3ad1f9e
    000feb13b00b2d4b 000feae2591a02e9 000feaaeae992257 000fea788d8ee326
    000fea3fcffd73e5 000fea044c8dd9f6 000fe9c5d62f563b 000fe9843ba947a4
    000fe93f471d4728 000fe8f6bd76c5d6 000fe8aa5dc4e8e6 000fe859e07ab1ea
    000fe804f690a940 000fe7ab488233c0 000fe74c751f6aa5 000fe6e8102aa202
    000fe67da0b6abd8 000fe60c9f38307e 000fe5947338f742 000fe51470977280
    000fe48bd436f458 000fe3f9bffd1e37 000fe35d35eeb19c 000fe2b5122fe4fe
    000fe20003995557 000fe13c82788314 000fe068c4ee67b0 000fdf82b02b71aa
    000fde87c57efeaa 000fdd7509c63bfd 000fdc46e529bf13 000fdaf8f82e0282
    000fd985e1b2ba75 000fd7e6ef48cf04 000fd613adbd650b 000fd40149e2f012
    000fd1a1a7b4c7ac 000fcee204761f9e 000fcba8d85e11b2 000fc7d26ecd2d22
    000fc32b2f1e22ed 000fbd6581c0b83a 000fb606c4005434 000fac40582a2874
    000f9e971e014598 000f89fa48a41dfc 000f66c5f7f0302c 000f1a5a4b331c4a
""".split()], dtype=np.uint64)
_ZIGGURAT_WI = np.array([int(w, 16) for w in """
    3ccf493b7815d979 3c8b8d0be3fdf6c6 3c9250af3c2c5bb4 3c957cb938443b61
    3c9801fce82fa70c 3c9a230c2e4cd0bc 3c9c004d2f3861f7 3c9dac2f5a747274
    3c9f32482d4cd5c3 3ca04d32278ebbad 3ca0f5053b025d43 3ca192a697413677
    3ca227a28f7a1af5 3ca2b52e3863d880 3ca33c3fc05791f5 3ca3bd9ec1a2b12f
    3ca439ef8dff9b55 3ca4b1bb363dfea7 3ca52575621ad374 3ca59580a707ce96
    3ca60231cfd97eea 3ca66bd261a37c3d 3ca6d2a292000570 3ca736dad346f8a6
    3ca798ad10b32a77 3ca7f845ad46f543 3ca855cc53430a77 3ca8b1649e7b769a
    3ca90b2ea94ecf98 3ca96347822c1eea 3ca9b9c98e38c546 3caa0eccdca4a72c
    3caa62676d77cd59 3caab4ad6e101630 3cab05b16d136c9c 3cab558487427a29
    3caba4368e529f3a 3cabf1d62abf8232 3cac3e70f9594ef3 3cac8a13a5323b61
    3cacd4c9fe72268b 3cad1e9f0e80b748 3cad679d29e41f10 3cadafce0023b8c3
    3cadf73aa9f17653 3cae3debb5d2edfe 3cae83e9337a6f00 3caec93abdf982ce
    3caf0de784f06226 3caf51f654d8f688 3caf956d9e87d7ae 3cafd8537dfa2eac
    3cb00d56e04234ec 3cb02e40f5398f9a 3cb04eea9e16a5fc 3cb06f565b72a010
    3cb08f869071f40b 3cb0af7d84bc6113 3cb0cf3d664bcc7f 3cb0eec84b16086b
    3cb10e20329515ee 3cb12d4707310fbe 3cb14c3e9f8e9141 3cb16b08bfc4201e
    3cb189a71a78da34 3cb1a81b51ee6d88 3cb1c666f8f82acb 3cb1e48b93e0d42e
    3cb2028a9940a09f 3cb2206572c4c6e9 3cb23e1d7de9c31f 3cb25bb40ca96bfb
    3cb2792a661dd37f 3cb29681c719d71b 3cb2b3bb62b82eda 3cb2d0d862e1b853
    3cb2edd9e8cba98e 3cb30ac10d6e48d7 3cb3278ee1f4b930 3cb3444470265ea1
    3cb360e2baca52d5 3cb37d6abe05586a 3cb399dd6fb2b264 3cb3b63bbfb83d03
    3cb3d28698561de0 3cb3eebede725a83 3cb40ae571e09e74 3cb426fb2da6745d
    3cb44300e83c30a4 3cb45ef773cac75d 3cb47adf9e66c336 3cb496ba32488f2f
    3cb4b287f602415d 3cb4ce49acb311dc 3cb4ea001638a605 3cb505abef5e5562
    3cb5214df20a8b5a 3cb53ce6d56a664f 3cb558774e1bb2c8 3cb574000e555f78
    3cb58f81c60e8514 3cb5aafd23241b59 3cb5c672d17d733d 3cb5e1e37b2f8cd3
    3cb5fd4fc89f5e38 3cb618b860a31fc3 3cb6341de8a2b0a2 3cb64f8104b7260b
    3cb66ae257c99672 3cb6864283b13137 3cb6a1a22950b2b1 3cb6bd01e8b343bb
    3cb6d8626128d352 3cb6f3c43161f854 3cb70f27f78b68eb 3cb72a8e516914c6
    3cb745f7dc70eedc 3cb7616535e5731f 3cb77cd6faeff449 3cb7984dc8babd93
    3cb7b3ca3c8b1409 3cb7cf4cf3db22fb 3cb7ead68c73dee7 3cb80667a486ea1f
    3cb82200dac88676 3cb83da2ce899f15 3cb8594e1fd1f5bd 3cb875036f7a7ec5
    3cb890c35f47f72d 3cb8ac8e9205c043 3cb8c865aba10c9c 3cb8e44951446a27
    3cb9003a2973b58f 3cb91c38dc288347 3cb9384612ef0afc 3cb954627903a28a
    3cb9708ebb70d5ee 3cb98ccb892e2a31 3cb9a919933f99bf 3cb9c5798cd5d92c
    3cb9e1ec2b6f7411 3cb9fe7226fad24a 3cba1b0c39f93692 3cba37bb21a2c85b
    3cba547f9e0bbb88 3cba715a724aa9a4 3cba8e4c64a0313d 3cbaab563e9ff108
    3cbac878cd5af5ce 3cbae5b4e18bb336 3cbb030b4fc3a11a 3cbb207cf09a985b
    3cbb3e0aa0e00c00 3cbb5bb541ce3d03 3cbb797db93f8927 3cbb9764f1e5f73c
    3cbbb56bdb85256e 3cbbd3936b2ec0a2 3cbbf1dc9b81ae83 3cbc10486cec16a0
    3cbc2ed7e5f07a2d 3cbc4d8c136e0d1c 3cbc6c6608ec8705 3cbc8b66e0eba617
    3cbcaa8fbd36a2ab 3cbcc9e1c73bd690 3cbce95e3068e037 3cbd0906328b8f6e
    3cbd28db1037ef20 3cbd48de1533c647 3cbd691096e7f123 3cbd8973f4d7fba5
    3cbdaa0999206e70 3cbdcad2f8fc490e 3cbdebd195522e37 3cbe0d06fb49d21c
    3cbe2e74c4ea46f6 3cbe501c99c1d188 3cbe72002f97fe25 3cbe94214b2abf0a
    3cbeb681c0f76f08 3cbed9237610a73a 3cbefc086101eca9 3cbf1f328ac25321
    3cbf42a40fb74d6d 3cbf665f20c90168 3cbf8a6604899782 3cbfaebb187122bf
    3cbfd360d22fe785 3cbff859c118f60b 3cc00ed447d3a075 3cc021a8028fc947
    3cc034a983a902ab 3cc047da4e3ef5c7 3cc05b3bf6adb37e 3cc06ed023a72668
    3cc082988f632e17 3cc0969708e8a254 3cc0aacd7571c0c4 3cc0bf3dd1eed448
    3cc0d3ea34aa3d30 3cc0e8d4cf116593 3cc0fdffefa69fb6 3cc1136e04207041
    3cc129219bbb5d35 3cc13f1d69c4096d 3cc1556448602e3b 3cc16bf93b9deef3
    3cc182df74d21261 3cc19a1a564eebac 3cc1b1ad777f2f8e 3cc1c99ca971a694
    3cc1e1ebfbe4ae39 3cc1fa9fc2e2d901 3cc213bc9d04cc81 3cc22d477a6fd3ee
    3cc24745a4ac9c24 3cc261bcc77658e0 3cc27cb2faa8592e 3cc2982ecd770e78
    3cc2b437532a0a52 3cc2d0d43196db97 3cc2ee0db1a978f5 3cc30becd256aeee
    3cc32a7b5e68a4a3 3cc349c405ae12a3 3cc369d27a33a840 3cc38ab39256410a
    3cc3ac7570ae88fa 3cc3cf27b31704a6 3cc3f2dbaa60f475 3cc417a49cb9e5da
    3cc43d9815545e94 3cc464ce44a73a15 3cc48d62759c43bc 3cc4b7739d6b5a27
    3cc4e3250dcd8902 3cc5109f53e9ac41 3cc54011523a7e42 3cc571b1a94ae41b
    3cc5a5c08b718dd9 3cc5dc8a243ad0fe 3cc61669cf861e4c 3cc653ce7b006aea
    3cc69540be9fe5c3 3cc6db6b8d09e232 3cc72728f05f7a34 3cc7799556090673
    3cc7d42df4d6ce8c 3cc839030529f234 3cc8ab0fbfaa7c14 3cc92ee0946f4496
    3cc9cbee014057ab 3cca8fdc7894775a 3ccb981f3878fdb1 3ccd3bb48209ad33
""".split()], dtype=np.uint64).view(np.float64)
_BLOCK_KEYS = 2048  # keys per block draw: all agents over max(1, 2048 // N) times
_memo = threading.local()  # this thread's last block: (cfg, n_agents, t0, t1, rows)


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """state * MULT + inc mod 2^128 on uint64 halves; the high word of
    lo * MULT_LO is formed from 32-bit limbs."""
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = _MULT_LO & _M32, _MULT_LO >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    mulhi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    prod_lo = lo * _MULT_LO
    new_lo = prod_lo + inc_lo
    new_hi = mulhi + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < prod_lo)
    return new_hi, new_lo


def _direction_block(seed: int, dim: int, law: str, n_agents: int, t0: int, t1: int) -> np.ndarray:
    """Directions of agents 0..n_agents-1 at times t0..t1-1 (n_agents, t1 <=
    2^32), row (t - t0) * n_agents + agent, bit-identical to numpy's route.

    Keys whose draw leaves the ziggurat fast path and zero-norm spheres are
    drawn by a numpy generator set to the key's seeded PCG64 state.
    """
    pool = np.random.SeedSequence(seed, spawn_key=(_DOMAIN_DIRECTION,)).pool
    # the pool has taken max(4, words of seed) entropy words and the domain
    # word, four hashmix steps per word
    words = max(_POOL_SIZE, -(-int(seed).bit_length() // 32)) + 1
    hc = _INIT_A * pow(_MULT_A, _POOL_SIZE * words, 1 << 32) & _M32
    agents = np.arange(n_agents, dtype=np.uint64)
    t = np.arange(t0, t1, dtype=np.uint64)[:, None]
    s = _state_words(_absorb(tuple(pool.astype(np.uint64)[:, None]), hc, [agents, t])[0])
    # PCG64 seeding: inc = initseq << 1 | 1 and
    # state = (initstate + inc) * MULT + inc, in (hi, lo) halves
    seq_hi, seq_lo = s[4] | s[5] << 32, s[6] | s[7] << 32
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = (s[2] | s[3] << 32) + inc_lo
    hi = (s[0] | s[1] << 32) + inc_hi + (lo < inc_lo)
    hi, lo = seeded = _pcg64_step(hi, lo, inc_hi, inc_lo)
    draws, fast = [], True
    for _ in range(dim):  # one output per coordinate on the fast path
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        rot = hi >> 58
        x = hi ^ lo
        r = (x >> rot) | (x << ((64 - rot) & 63))  # XSL-RR
        idx = (r & 0xFF).astype(np.intp)
        rabs = (r >> 9) & ((1 << 52) - 1)
        fast = fast & (rabs < _ZIGGURAT_KI[idx])
        v = rabs.astype(np.float64) * _ZIGGURAT_WI[idx]
        draws.append(np.where((r >> 8) & 1, -v, v))  # sign bit
    rows = np.stack(draws, axis=-1).reshape(-1, dim)
    slow = ~np.ravel(fast)
    if law == "uniform_sphere":
        norm = np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0, 0]
        slow |= norm == 0.0
        rows /= np.where(slow, 1.0, norm)[:, None]
    slow = np.flatnonzero(slow)
    if slow.size:
        rng = np.random.Generator(np.random.PCG64(0))
        halves = [np.ravel(a)[slow].tolist() for a in (*seeded, inc_hi, inc_lo)]
        for k, s_hi, s_lo, i_hi, i_lo in zip(slow.tolist(), *halves):
            rng.bit_generator.state = {
                "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}}
            rows[k] = _draw(rng, dim, law)
    return rows


def sample_direction(cfg: OracleConfig, agent: int, t: int) -> np.ndarray:
    """Random direction for (agent, t): i.i.d. standard normal coordinates
    under the gaussian law, or a unit vector uniform on the sphere.

    A direction is a pure function of (rng_seed, agent, t), bit-identical to
    the draw of np.random.default_rng(np.random.SeedSequence(entropy=rng_seed,
    spawn_key=(1, agent, t))), so draws do not depend on call order, batching
    or thread, and equal seeds reproduce identical directions.  Negative
    agent or t raise ValueError, non-integer ones TypeError.  Keys with
    agent < cfg.mu.size and t < 2^32 are served from a block that holds every
    agent over the aligned max(1, 2048 // cfg.mu.size) times around t; this
    thread keeps its last block, keyed by the cfg object.
    """
    c, n, t0, t1, rows = getattr(_memo, "block", (None,) * 5)
    if c is cfg and t0 <= t < t1 and 0 <= agent < n:
        return rows[(t - t0) * n + agent].copy()  # a non-integer key raises TypeError
    agent, t, n = operator.index(agent), operator.index(t), cfg.mu.size
    if not (0 <= agent < n and 0 <= t < 1 << 32):
        seq = np.random.SeedSequence(cfg.rng_seed, spawn_key=(_DOMAIN_DIRECTION, agent, t))
        return _draw(np.random.default_rng(seq), cfg.dim, cfg.direction_law)
    step = max(1, _BLOCK_KEYS // n)
    t0 = t - t % step
    t1 = min(t0 + step, 1 << 32)
    # a list of row views: indexing it is cheaper than indexing the array
    rows = list(_direction_block(cfg.rng_seed, cfg.dim, cfg.direction_law, n, t0, t1))
    _memo.block = (cfg, n, t0, t1, rows)
    return rows[(t - t0) * n + agent].copy()


def gradient_free_oracle(stream: ObjectiveStream, cfg: OracleConfig,
                         agent: int, t: int, x: np.ndarray) -> np.ndarray:
    """Two-point gradient estimate; makes exactly two stream evaluations.

    `x` must have shape (cfg.dim,).  At dim 1 the shift and the scale run on
    Python floats, with the IEEE operations of the numpy route in its order.
    """
    dim = cfg.dim
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"oracle point for agent {agent} at t={t} has shape {x.shape}, "
                         f"expected ({dim},) for dim {dim}")
    mu = cfg.mu.item(agent)
    xi = sample_direction(cfg, agent, t)
    # sample_direction returns a fresh array: at dim 1 it holds the shifted
    # point while it is evaluated, and the estimate after
    if dim == 1:
        xi0 = xi.item()
        xi[0] = x.item() + mu * xi0
        f_shift = stream.evaluate(agent, t, xi)
    else:
        f_shift = stream.evaluate(agent, t, x + mu * xi)
    f_base = stream.evaluate(agent, t, x)
    diff = f_shift - f_base
    # a difference is finite only if both values are
    if not math.isfinite(diff) and not (math.isfinite(f_shift) and math.isfinite(f_base)):
        raise OracleError(
            f"non-finite objective value for agent {agent} at t={t}: "
            f"f(x+mu*xi)={f_shift!r}, f(x)={f_base!r}")
    if dim == 1:
        xi[0] = xi0 * (diff / mu)
    else:
        xi *= diff / mu
    return xi


def smoothed_value_mc_stats(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                            mu: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the Gaussian-smoothed value f_mu(x) = E f(x + mu xi)
    and its standard error: (mean of f(x + mu * xi_k), sample std / sqrt(n)).

    `f` maps an (m, p) block of points to (m,) values; it is called once, on
    all n_samples points.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n_samples, x.size))
    vals = np.asarray(f(x[None, :] + mu * xi), dtype=float)
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return float(vals.mean()), stderr


def tracking_target(t: float) -> float:
    """Reference signal 2*sin(0.008 t)/t, extended continuously to 0.016 at t=0."""
    if t == 0:
        return 0.016
    return 2.0 * math.sin(0.008 * t) / t


def paper_objective_stream(n_agents: int, dim: int = 1, coeff_seed: int = 0) -> ObjectiveStream:
    """Time-varying quadratic tracking stream.

    Agent i at time t pays a_i ||x||^2 - 2 b_i d(t) sum(x) + c_i p d(t)^2 with
    d = tracking_target.  Coefficients are drawn uniform(0.5, 1.5) and then
    rescaled so each of sum(a), sum(b), sum(c) equals N exactly, which makes
    the aggregate cost N * ||x - d(t) 1||^2 with minimizer d(t) 1, interior
    to any feasible set that contains the box [-0.016, 0.016]^p.
    """
    if n_agents < 1:
        raise ValueError(f"need n_agents >= 1, got {n_agents}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=coeff_seed, spawn_key=(_DOMAIN_COEFF,)))
    a = rng.uniform(0.5, 1.5, n_agents)
    b = rng.uniform(0.5, 1.5, n_agents)
    c = rng.uniform(0.5, 1.5, n_agents)
    a *= n_agents / a.sum()
    b *= n_agents / b.sum()
    c *= n_agents / c.sum()
    for arr in (a, b, c):
        arr.flags.writeable = False
    # per agent (a_i, 2 b_i, c_i p): the leading products of the formula's
    # left-to-right terms, so holding them keeps every bit
    coeffs = tuple(zip(a.tolist(), (2.0 * b).tolist(), (c * dim).tolist()))

    def subgradient_bound(rho: float) -> float:
        # ||2 a_i x - 2 b_i d 1|| <= 2 a_i rho + 2 b_i |d| sqrt(p), |d| <= 0.016
        return float((2.0 * a * rho + 2.0 * b * 0.016 * math.sqrt(dim)).max())

    # (t, d(t)) of the last time evaluated, shared by both evaluations of a
    # draw; the tuple is replaced whole, so no thread reads a torn pair
    last = [(None, 0.0)]

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        s, d = last[0]
        if s != t:
            d = tracking_target(t)
            last[0] = (t, d)
        a_i, b2_i, cp_i = coeffs[agent]
        if dim == 1:
            # the bits of the p >= 2 formula: a one-element dot is the rounded
            # product and a one-element np.add.reduce is the element itself; at
            # p >= 2 numpy's dot uses fused multiply-adds that floats cannot redo
            v = np.asarray(x, dtype=float).item()
            return a_i * v * v - b2_i * d * v + cp_i * d * d
        # (a_i x).x - 2 b_i d sum(x) + c_i p d^2 in this operation order, on
        # Python floats; np.add.reduce is what x.sum() runs, .dot what `@` runs
        x = np.asarray(x, dtype=float)
        return float((a_i * x).dot(x)) - b2_i * d * float(np.add.reduce(x)) + cp_i * d * d

    def aggregate_evaluate(t, points: np.ndarray) -> np.ndarray:
        # d by math.sin once per distinct time; np.sin may differ in the last bit
        times, rows = np.unique(t, return_inverse=True)
        d = np.array([tracking_target(s) for s in times.tolist()])[rows]
        return (a.sum() * (points ** 2).sum(axis=1)
                - 2.0 * b.sum() * d * points.sum(axis=1)
                + c.sum() * dim * d * d)

    def analytic_minimizer(t: int) -> np.ndarray:
        return np.array([tracking_target(t)] * dim)

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate,
        analytic_minimizer=analytic_minimizer, subgradient_bound=subgradient_bound,
        aggregate_evaluate=aggregate_evaluate,
        params={"coeff_seed": coeff_seed, "a": a.tolist(), "b": b.tolist(), "c": c.tolist()},
    )


def linear_probe_stream(n_agents: int, dim: int = 1, seed: int = 0,
                        scale: float = 1.0) -> ObjectiveStream:
    """Per-agent linear costs <u_i, x> with seeded unit directions times scale.

    The two-point estimator is exact on linear functions, which makes this
    stream a sharp probe for oracle identities.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_COEFF,)))
    u = rng.standard_normal((n_agents, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u *= scale
    u.flags.writeable = False

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        return float(u[agent] @ np.asarray(x, dtype=float))

    def aggregate_evaluate(t: int, points: np.ndarray) -> np.ndarray:
        # a stacked row dot rounds each row alike, however many rows are passed
        return (points[:, None, :] @ u.sum(axis=0)[:, None])[:, 0, 0]

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate, params={"seed": seed, "scale": scale},
        subgradient_bound=lambda rho: float(scale), aggregate_evaluate=aggregate_evaluate,
    )


def constant_stream(n_agents: int, dim: int = 1, value: float = 0.0) -> ObjectiveStream:
    """Constant costs; the oracle is exactly zero, leaving pure consensus."""

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        return float(value)

    def aggregate_evaluate(t: int, points: np.ndarray) -> np.ndarray:
        return np.full(points.shape[0], float(value) * n_agents)

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate, params={"value": value},
        subgradient_bound=lambda rho: 0.0, aggregate_evaluate=aggregate_evaluate,
    )


def norm_stream(n_agents: int, dim: int = 1, scale: float = 1.0) -> ObjectiveStream:
    """Euclidean-norm costs scale * ||x||: convex, scale-Lipschitz, kinked at 0."""

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        # what np.linalg.norm computes for a 1-D input: sqrt of the dot
        x = np.asarray(x, dtype=float).ravel()
        return float(scale * math.sqrt(x.dot(x)))

    def analytic_minimizer(t: int) -> np.ndarray:
        return np.zeros(dim)

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate, params={"scale": scale},
        analytic_minimizer=analytic_minimizer, subgradient_bound=lambda rho: float(scale),
    )


STREAM_REGISTRY: dict[str, Callable[[int, int, int], ObjectiveStream]] = {
    "paper_quadratic": lambda n, dim, seed: paper_objective_stream(n, dim, coeff_seed=seed),
    "linear_probe": lambda n, dim, seed: linear_probe_stream(n, dim, seed=seed),
    "constant": lambda n, dim, seed: constant_stream(n, dim),
}


def make_stream(name: str, n_agents: int, dim: int, seed: int) -> ObjectiveStream:
    """Instantiate a registered stream by name."""
    try:
        factory = STREAM_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown stream {name!r}; registered: {sorted(STREAM_REGISTRY)}") from None
    return factory(n_agents, dim, seed)
