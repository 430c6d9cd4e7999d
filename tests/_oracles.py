"""Independent oracles used by the tests.

Everything here recomputes expected values from first principles (plain
numpy matrix arithmetic, single-qubit Bloch equations) so the tests never
assert an implementation against itself.
"""

import itertools

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SPLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SMINUS = np.array([[0, 0], [1, 0]], dtype=complex)

_SITE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_word(word: str) -> np.ndarray:
    """Dense image of a Pauli word, built directly from single-site matrices."""
    out = _SITE[word[0]]
    for ch in word[1:]:
        out = np.kron(out, _SITE[ch])
    return out


def dense_operator(op) -> np.ndarray:
    """Dense image of a PauliOperator, independent of the package's converter."""
    dim = 2 ** op.n
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in op.terms.items():
        out += coeff * dense_word(word)
    return out


def _letter_product(a: str, b: str) -> tuple:
    """(phase, letter) with a @ b = phase * letter, read off the 2 x 2 matrices."""
    prod = _SITE[a] @ _SITE[b]
    for letter, mat in _SITE.items():
        phase = np.vdot(mat, prod) / 2  # Hilbert-Schmidt overlap; one letter matches
        if np.allclose(prod, phase * mat):
            return complex(phase), letter
    raise AssertionError(f"{a}{b} is not a phased Pauli matrix")


_LETTER_PRODUCTS = {(a, b): _letter_product(a, b) for a in "IXYZ" for b in "IXYZ"}


def reference_string_mul(a: str, b: str) -> tuple:
    """(phase, word) with a @ b = phase * word, one site at a time."""
    phase = 1.0 + 0j
    letters = []
    for la, lb in zip(a, b):
        p, letter = _LETTER_PRODUCTS[la, lb]
        phase *= p
        letters.append(letter)
    return phase, "".join(letters)


def _pruned(terms: dict, tol: float) -> dict:
    return {word: coeff for word, coeff in terms.items() if abs(coeff) >= tol}


def reference_product(a: dict, b: dict, tol: float) -> dict:
    """a @ b of word -> coefficient dicts.

    Term pairs in a-major order, each word's sum started from 0j and grown
    by ca * cb * phase, then coefficients below tol dropped.
    """
    acc = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            phase, word = reference_string_mul(wa, wb)
            acc[word] = acc.get(word, 0j) + ca * cb * phase
    return _pruned(acc, tol)


def reference_sum(a: dict, b: dict, tol: float) -> dict:
    """a + b: a's words in order, then b's new ones, each b term added, then pruned."""
    acc = dict(a)
    for word, coeff in b.items():
        acc[word] = acc.get(word, 0j) + coeff
    return _pruned(acc, tol)


def reference_difference(a: dict, b: dict, tol: float) -> dict:
    """a + (-b), with the negated b pruned first."""
    return reference_sum(a, _pruned({w: -c for w, c in b.items()}, tol), tol)


def _generator_action(h_mat, lindblad_mats, rho):
    """-i[H, rho] + sum(2 L rho L+ - {L+L, rho}) by plain matrix products."""
    acc = -1j * (h_mat @ rho - rho @ h_mat)
    for lm in lindblad_mats:
        ldl = lm.conj().T @ lm
        acc += 2 * lm @ rho @ lm.conj().T - ldl @ rho - rho @ ldl
    return acc


def apply_generator(model, rho) -> np.ndarray:
    """The model's generator applied to rho, with dense images from dense_operator."""
    return _generator_action(
        dense_operator(model.hamiltonian),
        [dense_operator(lm) for lm in model.lindblads],
        np.asarray(rho, dtype=complex),
    )


def _matrix_of(action, dim):
    """Applies action to all matrix units E_ab at once and stacks the column-vectorized results.

    The actions are matrix products, which broadcast over the stack of units.
    """
    cols = np.arange(dim * dim)
    units = np.zeros((dim * dim, dim, dim), dtype=complex)
    units[cols, cols % dim, cols // dim] = 1.0  # column-stacked basis matrices
    # image k, column-stacked, is column k: entry (r, c) of it is row r + c * dim
    return action(units).transpose(0, 2, 1).reshape(dim * dim, dim * dim).T


def generator_matrix(h_mat, lindblad_mats):
    """Column-by-column generator matrix from plain matrix products."""
    return _matrix_of(lambda rho: _generator_action(h_mat, lindblad_mats, rho), h_mat.shape[0])


def dense_shift(lindblad_mats, dim: int) -> float:
    """s = Re Tr(sum_m {L_m, L_m^dag}) / dim from plain matrix products."""
    return sum(np.trace(lm @ lm.conj().T + lm.conj().T @ lm).real for lm in lindblad_mats) / dim


def shifted_generator_matrix(h_mat, lindblad_mats):
    """generator_matrix plus dense_shift(lindblad_mats, dim) Id."""
    dim = h_mat.shape[0]
    shift = dense_shift(lindblad_mats, dim)
    return generator_matrix(h_mat, lindblad_mats) + shift * np.eye(dim * dim)


def pt_residual(model) -> float:
    """||L'P + P L'^dag||_F / max(1, ||L'||_F) from plain dense matrices.

    L' = L + s Id with s the identity component of sum_m {L_m, L_m^dag}
    (its trace over the dimension); P is the matrix of rho -> U rho W.
    """
    shifted = shifted_generator_matrix(
        dense_operator(model.hamiltonian), [dense_operator(lm) for lm in model.lindblads]
    )
    u, w = dense_operator(model.u), dense_operator(model.w)
    parity = _matrix_of(lambda rho: u @ rho @ w, u.shape[0])
    defect = shifted @ parity + parity @ shifted.conj().T
    return float(np.linalg.norm(defect) / max(1.0, np.linalg.norm(shifted)))


def pauli_words(n) -> np.ndarray:
    """Dense images of all 4^n Pauli words, in base-4 order of I, X, Y, Z = 0..3.

    The first site is the most significant digit.
    """
    return np.array([dense_word("".join(w)) for w in itertools.product("IXYZ", repeat=n)])


def pauli_coordinates(rho) -> np.ndarray:
    """x with rho = sum_a x_a P_a, that is x_a = 2^-n Tr(P_a rho)."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    return np.einsum("aij,ji->a", pauli_words(dim.bit_length() - 1), rho) / dim


def pauli_sum(x) -> np.ndarray:
    """sum_a x_a P_a, the inverse of pauli_coordinates."""
    x = np.asarray(x)
    return np.einsum("a,aij->ij", x, pauli_words((x.size.bit_length() - 1) // 2))


def pauli_generator_matrix(model) -> np.ndarray:
    """R[c, a] = 2^-n Tr(P_c G(P_a)), the generator in Pauli-word coordinates.

    Column a holds the coordinates of apply_generator on the word P_a.
    """
    return np.stack([pauli_coordinates(apply_generator(model, word))
                     for word in pauli_words(model.n)], axis=1)


def analytic_constants(spec) -> tuple:
    """Channel constants c_m of a family spec, in the builders' channel order.

    {g Z, (g Z)^dag} = 2|g|^2 I and {a s+, (a s+)^dag} = |a|^2 {s+, s-} = |a|^2 I,
    likewise |b|^2 for b s-; the scale multiplies every rate, and zero-rate
    channels are absent.
    """
    if hasattr(spec.noise, "gammas"):
        rates = [(g, 2.0) for g in spec.noise.gammas]
    else:
        rates = [(r, 1.0) for pair in zip(spec.noise.a, spec.noise.b) for r in pair]
    return tuple(f * abs(spec.scale * r) ** 2 for r, f in rates if r != 0)


def bloch_block(h: float, g: float) -> np.ndarray:
    """(y, z) block of the single-qubit Bloch generator for H = h X, L = g Z."""
    return np.array([[-4 * g * g, -2 * h], [2 * h, 0.0]])


def bloch_liouvillian_eigs(h: float, g: float) -> np.ndarray:
    """All four generator eigenvalues for H = h X, L = g Z.

    The Bloch equations decouple into x (rate -4g^2) and the (y, z) block;
    the trace mode contributes the stationary eigenvalue 0.
    """
    yz = np.linalg.eigvals(bloch_block(h, g))
    return np.concatenate([[0.0, -4 * g * g], yz]).astype(complex)


def bloch_transition_scale(h: float) -> float:
    """Noise scale where the (y, z) eigenvalues collide: g^2 = h."""
    return float(np.sqrt(h))


def assert_spectra_match(got, want, tol: float) -> None:
    """Order-free multiset comparison of two eigenvalue lists."""
    got = list(np.asarray(got, dtype=complex))
    want = list(np.asarray(want, dtype=complex))
    assert len(got) == len(want)
    for target in want:
        dists = [abs(g - target) for g in got]
        best = int(np.argmin(dists))
        assert dists[best] < tol, f"no eigenvalue within {tol} of {target}: {dists[best]}"
        got.pop(best)
