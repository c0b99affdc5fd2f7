/**
 * @file
 * Eigendecomposition routines for the small Hermitian operators used in
 * pulse synthesis and Weyl-chamber analysis.
 *
 * hermitianEig reduces the matrix to Hermitian tridiagonal form with
 * Householder reflectors, scales it by a diagonal unitary to a real
 * symmetric tridiagonal, and diagonalizes that by implicit-shift QL,
 * accumulating the plane rotations into the complex Householder basis.
 * This is O(n^3) with a small constant and backward stable: residual and
 * orthonormality defect are a few ulps times n |A|.
 */
#ifndef QAIC_LA_EIG_H
#define QAIC_LA_EIG_H

#include <vector>

#include "la/cmatrix.h"
#include "la/kernels.h"

namespace qaic {

/** Result of a Hermitian eigendecomposition A = V diag(values) V^dag. */
struct EigResult
{
    /** Real eigenvalues in ascending order. */
    std::vector<double> values;
    /** Unitary matrix whose k-th column is the k-th eigenvector. */
    CMatrix vectors;
};

/**
 * Eigendecomposition of a complex Hermitian matrix (Householder
 * tridiagonalization + implicit QL).
 *
 * @param a Hermitian matrix (checked up to @p herm_tol).
 * @param herm_tol Tolerance for the Hermiticity check.
 * @return Eigenvalues (ascending) and orthonormal eigenvectors.
 */
EigResult hermitianEig(const CMatrix &a, double herm_tol = 1e-9);

/**
 * Allocation-free variant: writes the decomposition into @p out (whose
 * storage is reused across calls) and takes its scratch from @p ws.
 * The hot path for per-timestep decompositions in GRAPE.
 */
void hermitianEig(const CMatrix &a, EigResult &out, Workspace &ws,
                  double herm_tol = 1e-9);

/**
 * Result of simultaneously diagonalizing two commuting Hermitian matrices:
 * x = V diag(x_values) V^dag and y = V diag(y_values) V^dag.
 */
struct SimultaneousEigResult
{
    std::vector<double> xValues;
    std::vector<double> yValues;
    CMatrix vectors;
};

/**
 * Simultaneously diagonalizes two commuting Hermitian matrices.
 *
 * Diagonalizes @p x first, then re-diagonalizes @p y inside each degenerate
 * eigenspace of @p x. Used to extract the eigenphases of symmetric unitary
 * matrices (Weyl-chamber computation), where the real and imaginary parts
 * are commuting real-symmetric matrices.
 *
 * @param x First Hermitian matrix.
 * @param y Second Hermitian matrix; must commute with @p x.
 * @param degeneracy_tol Eigenvalues of @p x closer than this are treated as
 *        one degenerate cluster.
 */
SimultaneousEigResult simultaneousEig(const CMatrix &x, const CMatrix &y,
                                      double degeneracy_tol = 1e-8);

} // namespace qaic

#endif // QAIC_LA_EIG_H
