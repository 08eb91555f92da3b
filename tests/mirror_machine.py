"""Independent straight-line reimplementation of the pulse flow chart.

One object per cell, plain if/else control flow, no mask algebra.  It calls
the engine's model kernels (streams, the innovation mix, `inverse_map`,
`state_from_resistance`, `transition_state`) on float32 values, so that any
disagreement with the vectorized engine isolates a branch-logic defect rather
than arithmetic noise; state comparisons in the tests are exact.  The start
is written out here on its own: 4p normals drawn slot by slot, oldest slot
first, each newest-first lag slot i the dot product of the first 4(i + 1) of
them with its rows of the shared float32 stationary factor, then one step.
"""

import numpy as np

from stochsyn import streams
from stochsyn.array import U_RESET_CLEARANCE, mix_lower_triangular, stationary_factor32
from stochsyn.conduction import state_from_resistance, transition_state
from stochsyn.transform import inverse_map

HRS, LRS, IRS = 0, 1, 2


class MirrorCell:
    def __init__(self, bundle, p, seed, index):
        model = bundle.svar[p]
        self.p = p
        self.w32 = model.lag_weights().astype(np.float32)
        self.cholu32 = model.chol_u.astype(np.float32)
        self.gamma = bundle.gamma
        self.cm = bundle.conduction
        self.umax = float(bundle.defaults.u_max)

        self.key = streams.stream_keys(seed, np.array([index]))
        self.ctr = np.zeros(1, dtype=np.uint64)
        self.lags = np.zeros((1, 4 * p), dtype=np.float32)
        self.scale = np.ones((1, 4), dtype=np.float32)
        draws = np.zeros((1, 4 * p), dtype=np.float32)
        for j in range(p):
            slot = p - 1 - j
            draws[0, 4 * slot : 4 * slot + 4] = streams.normals(self.key, self.ctr, 4)[:, 0]
        factor = stationary_factor32(model)
        for i in range(p):
            w = 4 * (i + 1)
            self.lags[:, w - 4 : w] = np.einsum("mk,jk->mj", draws[:, :w], factor[w - 4 : w, :w],
                                                optimize=False)
        self.feat = self._realize(self._step())
        self.nfeat = np.full(4, np.nan, dtype=np.float32)
        self.phase = HRS
        self.cycle = 1
        self.r = state_from_resistance(self.feat[0], self.cm)
        self.u_reset = self.feat[3]

    def _step(self):
        eps = streams.normals(self.key, self.ctr, 4)
        noise = mix_lower_triangular(eps, self.cholu32)
        x = np.einsum("mk,kj->mj", self.lags, self.w32, optimize=False) + noise
        self.lags[:, 4:] = self.lags[:, :-4]
        self.lags[:, :4] = x
        return x

    def _realize(self, x):
        y = inverse_map(self.gamma, x) * self.scale
        y[:, 3] = np.minimum(y[:, 3], self.umax - U_RESET_CLEARANCE)
        return y[0]

    def pulse(self, u_a):
        ua = np.float32(u_a)
        if ua > self.u_reset:
            # gradual positive-polarity branch
            if self.phase == HRS:
                return
            if self.phase == LRS:
                self.nfeat = self._realize(self._step())
            if ua >= self.umax:
                self.feat = self.nfeat.copy()
                self.cycle += 1
                self.r = state_from_resistance(self.feat[0], self.cm)
                self.phase = HRS
                self.u_reset = self.feat[3]
            else:
                self.r = transition_state(
                    ua, self.feat[3], state_from_resistance(self.feat[2], self.cm),
                    state_from_resistance(self.nfeat[0], self.cm), self.umax, self.cm)
                self.phase = IRS
                self.u_reset = ua
            return
        # abrupt negative-polarity branch
        thresh = self.nfeat[1] if self.phase == IRS else self.feat[1]
        if ua <= -thresh and self.phase != LRS:
            if self.phase == IRS:
                self.feat = self.nfeat.copy()
                self.cycle += 1
            self.r = state_from_resistance(self.feat[2], self.cm)
            self.phase = LRS
            self.u_reset = self.feat[3]
