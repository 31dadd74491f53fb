"""Reference computations shared by the test modules."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


def stepped_states(model, cfg):
    """Backward-Euler states ``P u_k`` of a coarse model started from zero,
    by one ``splu`` of ``C_c/tau + A_c`` and a plain loop: whatever path
    ``solve_parabolic`` takes, this one always steps."""
    C_c = sp.csc_matrix(model.capacity)
    lu = splu(sp.csc_matrix(C_c / cfg.tau + model.operator))
    coarse = np.zeros((cfg.n_steps + 1, model.n_coarse))
    for k in range(cfg.n_steps):
        coarse[k + 1] = lu.solve(C_c @ coarse[k] / cfg.tau + model.rhs)
    return (model.matrix @ coarse.T).T
