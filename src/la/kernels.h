/**
 * @file
 * Allocation-free dense kernels and the scratch-buffer Workspace.
 *
 * cmatrix.h deliberately favours clarity; this header is where the hot
 * paths live. Every kernel writes into a caller-owned destination (or
 * mutates in place), so steady-state loops — GRAPE iterations, Pade
 * squarings, eigendecompositions — run without touching the allocator. The
 * inner loops also spell out the complex arithmetic on the raw
 * real/imag parts: std::complex<double> products otherwise lower to
 * __muldc3 (full Inf/NaN semantics), which costs a call per multiply.
 *
 * Aliasing: unless a kernel's contract says otherwise, @p dest must not
 * alias any input. In-place kernels (…InPlace) mutate their first
 * argument and allow @p b to be distinct storage only.
 *
 * Workspace ownership rules (also in docs/ARCHITECTURE.md):
 *  - a Workspace is single-threaded; parallel code uses one per worker;
 *  - acquire() hands out a buffer for the lifetime of the returned RAII
 *    handle and recycles it afterwards, so nested routines can share one
 *    arena without clobbering their caller's scratch;
 *  - after a warm-up pass every acquire() is allocation-free as long as
 *    the shapes requested stay bounded.
 */
#ifndef QAIC_LA_KERNELS_H
#define QAIC_LA_KERNELS_H

#include <cstddef>
#include <memory>
#include <vector>

#include "la/cmatrix.h"

namespace qaic {

/**
 * Arena of reusable CMatrix scratch buffers.
 *
 * Buffers are checked out with acquire() and returned automatically when
 * the handle goes out of scope (LIFO use is typical but not required).
 */
class Workspace
{
  public:
    /** RAII checkout of one scratch matrix; movable, not copyable. */
    class Handle
    {
      public:
        Handle() = default;
        Handle(Workspace *owner, std::size_t index)
            : owner_(owner), index_(index)
        {
        }
        Handle(Handle &&other) noexcept { *this = std::move(other); }
        Handle &
        operator=(Handle &&other) noexcept
        {
            release();
            owner_ = other.owner_;
            index_ = other.index_;
            other.owner_ = nullptr;
            return *this;
        }
        Handle(const Handle &) = delete;
        Handle &operator=(const Handle &) = delete;
        ~Handle() { release(); }

        CMatrix &get() { return *owner_->buffers_[index_]; }
        CMatrix &operator*() { return get(); }
        CMatrix *operator->() { return &get(); }

      private:
        void
        release()
        {
            if (owner_)
                owner_->free_.push_back(index_);
            owner_ = nullptr;
        }

        Workspace *owner_ = nullptr;
        std::size_t index_ = 0;
    };

    /**
     * Checks out a scratch matrix reshaped to @p rows x @p cols.
     * Contents are unspecified; callers overwrite (or setZero()).
     * Buffers live behind stable pointers, so references obtained from
     * earlier handles survive later acquire() calls.
     */
    Handle
    acquire(std::size_t rows, std::size_t cols)
    {
        std::size_t index;
        if (!free_.empty()) {
            index = free_.back();
            free_.pop_back();
        } else {
            index = buffers_.size();
            buffers_.push_back(std::make_unique<CMatrix>());
        }
        buffers_[index]->resize(rows, cols);
        return Handle(this, index);
    }

    /** Buffers ever created (for tests / introspection). */
    std::size_t size() const { return buffers_.size(); }

  private:
    friend class Handle;
    std::vector<std::unique_ptr<CMatrix>> buffers_;
    std::vector<std::size_t> free_;
};

/**
 * dest = a * b. Blocked i-k-j product with the inner loop written on the
 * raw real/imag parts; dest is reshaped as needed and must not alias
 * either input.
 */
void multiplyInto(CMatrix &dest, const CMatrix &a, const CMatrix &b);

/**
 * dest = a * b^dag without materializing the dagger. The inner loop is a
 * dot product of two contiguous rows (b is traversed transposed), which
 * is the cache-friendly orientation for row-major storage.
 */
void multiplyDaggerInto(CMatrix &dest, const CMatrix &a, const CMatrix &b);

/**
 * dest = a^dag * b without materializing the dagger (k-i-j order keeps
 * the inner loop contiguous in b and dest).
 */
void multiplyAdjointInto(CMatrix &dest, const CMatrix &a, const CMatrix &b);

/** dest = a^dag. dest must not alias a. */
void daggerInto(CMatrix &dest, const CMatrix &a);

/** a += s * b (shapes must match; a and b must be distinct). */
void addScaledInPlace(CMatrix &a, const CMatrix &b, Cmplx s);

/**
 * dest = a * diag(d): column j of a scaled by d[j]. O(n^2) — the cheap
 * half of the spectral exponential V e^{-i t D} V^dag. @p d must hold
 * a.cols() entries.
 */
void scaleColumnsInto(CMatrix &dest, const CMatrix &a, const Cmplx *d);

/** Convenience overload taking the diagonal as a vector. */
void scaleColumnsInto(CMatrix &dest, const CMatrix &a,
                      const std::vector<Cmplx> &d);

} // namespace qaic

#endif // QAIC_LA_KERNELS_H
