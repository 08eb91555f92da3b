"""Independent straight-line reimplementation of the pulse flow chart.

One object per cell, plain if/else control flow, no mask algebra.  It shares
the engine's primitive kernels (streams, Horner, float32 widths) so that any
disagreement with the vectorized engine isolates a branch-logic defect rather
than arithmetic noise; state comparisons in the tests are exact.  The start
is written out here on its own: 4p normals drawn slot by slot, oldest slot
first, each newest-first lag slot i the dot product of the first 4(i + 1) of
them with its rows of the shared float32 stationary factor, then one step.
"""

import numpy as np

from stochsyn import streams
from stochsyn.array import mix_lower_triangular, stationary_factor32
from stochsyn.conduction import eval_poly

HRS, LRS, IRS = 0, 1, 2

_F1 = np.float32(1.0)
_F0 = np.float32(0.0)


class MirrorCell:
    def __init__(self, bundle, p, seed, index):
        model = bundle.svar[p]
        self.p = p
        self.w32 = model.lag_weights().astype(np.float32)
        self.cholu32 = model.chol_u.astype(np.float32)
        self.g32 = bundle.gamma.coeffs.astype(np.float32)
        self.zlo = np.float32(bundle.gamma.z_range[0])
        self.zhi = np.float32(bundle.gamma.z_range[1])
        cm = bundle.conduction
        self.hh32 = cm.hhrs.astype(np.float32)
        self.ll32 = cm.llrs.astype(np.float32)
        il0, ih0 = cm.i_llrs(cm.u0), cm.i_hhrs(cm.u0)
        self.ca = np.float32(il0 / (il0 - ih0))
        self.cb = np.float32(cm.u0 / (il0 - ih0))
        self.umax = np.float32(bundle.defaults.u_max)
        self.il_umax = np.float32(cm.i_llrs(bundle.defaults.u_max))
        self.ih_umax = np.float32(cm.i_hhrs(bundle.defaults.u_max))
        self.ur_cap = np.float32(bundle.defaults.u_max - 1e-3)

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
        self.r = self._state_res(self.feat[0:1])[0]
        self.u_reset = self.feat[3]

    def _step(self):
        eps = streams.normals(self.key, self.ctr, 4)
        noise = mix_lower_triangular(eps, self.cholu32)
        x = np.einsum("mk,kj->mj", self.lags, self.w32, optimize=False) + noise
        self.lags[:, 4:] = self.lags[:, :-4]
        self.lags[:, :4] = x
        return x

    def _realize(self, x):
        z = np.clip(x, self.zlo, self.zhi)
        y = np.empty((1, 4), dtype=np.float32)
        for k in range(4):
            y[:, k] = np.exp(eval_poly(self.g32[k], z[:, k]))
        y *= self.scale
        y[:, 3] = np.minimum(y[:, 3], self.ur_cap)
        return y[0]

    def _state_res(self, res):
        return np.clip(self.ca - self.cb / res, _F0, _F1)

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
                self.r = self._state_res(self.feat[0:1])[0]
                self.phase = HRS
                self.u_reset = self.feat[3]
            else:
                u_start = self.feat[3:4]
                r_lrs = self._state_res(self.feat[2:3])
                r_he = self._state_res(self.nfeat[0:1])
                i_start = r_lrs * eval_poly(self.hh32, u_start) \
                    + (_F1 - r_lrs) * eval_poly(self.ll32, u_start)
                i_end = r_he * self.ih_umax + (_F1 - r_he) * self.il_umax
                curv = (i_start - i_end) / (u_start - self.umax) ** 2
                i_at = i_end + curv * (ua - self.umax) ** 2
                il = eval_poly(self.ll32, np.asarray([ua]))
                ih = eval_poly(self.hh32, np.asarray([ua]))
                denom = np.maximum(il - ih, np.float32(1e-12))
                self.r = np.clip((il - i_at) / denom, _F0, _F1)[0]
                self.phase = IRS
                self.u_reset = ua
            return
        # abrupt negative-polarity branch
        thresh = self.nfeat[1] if self.phase == IRS else self.feat[1]
        if ua <= -thresh and self.phase != LRS:
            if self.phase == IRS:
                self.feat = self.nfeat.copy()
                self.cycle += 1
            self.r = self._state_res(self.feat[2:3])[0]
            self.phase = LRS
            self.u_reset = self.feat[3]
