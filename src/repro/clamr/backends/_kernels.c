/* cext backend driver: instantiate the kernel bodies at float and double.
 *
 * Built at first use by backends/cext.py with
 *   cc -O3 -fPIC -shared -ffp-contract=off -fno-math-errno
 * (no -ffast-math: the whole point is bit-identity with NumPy).
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
