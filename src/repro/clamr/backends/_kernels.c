/* cext backend driver: instantiate the kernel bodies at float and double.
 *
 * Built at first use by backends/cext.py with
 *   cc -O3 -fPIC -shared -ffp-contract=off -fno-math-errno
 *      -fno-trapping-math -march=native
 * and, if the compiler rejects -march=native, once more without it (the
 * portable build). No -ffast-math: the whole point is bit-identity with
 * NumPy. -fno-trapping-math only lets the compiler if-convert the
 * branch-free loops (no rounding changes); the library name is keyed on
 * the host CPU whenever -march=native is in the flags (see
 * _kernels_impl.h and cext.py).
 * float16 is not instantiated — the half policy's arithmetic stays on the
 * NumPy path, mirroring the ScatterPlan CSR dtype restriction; the regrid
 * topology builders carry no compute type and are defined once, by the
 * first inclusion.
 */

#include <stdint.h>
#include <math.h>

#define T float
#define FN(name) name##_f32
#define KSQRT sqrtf
#define KFABS fabsf
#include "_kernels_impl.h"
#undef T
#undef FN
#undef KSQRT
#undef KFABS

#define T double
#define FN(name) name##_f64
#define KSQRT sqrt
#define KFABS fabs
#include "_kernels_impl.h"
#undef T
#undef FN
#undef KSQRT
#undef KFABS

/* ABI version stamp so stale cached .so files are never reused. */
int repro_kernels_abi(void) { return 3; }
