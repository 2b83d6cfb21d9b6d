/* Compiled Numerov sweeps: the hot loop of every bound solve and phase sweep.

Semantics and operation order match ``_numerov_py`` exactly: u'' = f u on a
uniform mesh, u[i+1] = ((2 + 10 T_i) u[i] - (1 - T_{i-1}) u[i-1]) / (1 - T_{i+1})
with T_i = h^2 f_i / 12, and the computed prefix rescaled by SHRINK whenever
|u| passes GUARD (true_u = u * exp(log_scale)). Built with -ffp-contract=off,
so no multiply-add is fused and every value is bit-identical to the fallback's.
*/
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <math.h>

#define GUARD 1e250
#define SHRINK 1e-250

/* Parses (f, h, u_a, u_b, stop) into f as a C-contiguous float64 vector and
   a new output array: stop + 1 values outward (1 <= stop < len(f)), or
   len(f) - stop inward (0 <= stop <= len(f) - 2). Returns -1 with an
   exception set on failure. */
static int begin(PyObject *args, int inward, PyArrayObject **fa, PyObject **out,
                 double *h, double *ua, double *ub, Py_ssize_t *stop)
{
    PyObject *f;
    if (!PyArg_ParseTuple(args, "Odddn", &f, h, ua, ub, stop))
        return -1;
    *fa = (PyArrayObject *)PyArray_FROMANY(f, NPY_DOUBLE, 1, 1, NPY_ARRAY_IN_ARRAY);
    if (*fa == NULL)
        return -1;
    Py_ssize_t n = PyArray_DIM(*fa, 0);
    npy_intp len = inward ? n - *stop : *stop + 1;
    if (*stop < 0 || len < 2 || len > n)
        PyErr_Format(PyExc_ValueError, "stop %zd out of range for %zd points", *stop, n);
    else if ((*out = PyArray_SimpleNew(1, &len, NPY_DOUBLE)) != NULL)
        return 0;
    Py_DECREF(*fa);
    return -1;
}

static PyObject *sweep_outward(PyObject *self, PyObject *args)
{
    PyArrayObject *fa;
    PyObject *out;
    double h, u0, u1, log_scale = 0.0;
    Py_ssize_t stop;
    if (begin(args, 0, &fa, &out, &h, &u0, &u1, &stop) < 0)
        return NULL;
    const double *f = PyArray_DATA(fa), t = h * h / 12.0;
    double *u = PyArray_DATA((PyArrayObject *)out);
    u[0] = u0;
    u[1] = u1;
    for (Py_ssize_t i = 1; i < stop; i++) {
        double nxt = ((2.0 + 10.0 * t * f[i]) * u[i]
                      - (1.0 - t * f[i - 1]) * u[i - 1]) / (1.0 - t * f[i + 1]);
        if (nxt > GUARD || nxt < -GUARD) {
            for (Py_ssize_t j = 0; j <= i; j++)
                u[j] *= SHRINK;
            nxt *= SHRINK;
            log_scale += -log(SHRINK);
        }
        u[i + 1] = nxt;
    }
    Py_DECREF(fa);
    return Py_BuildValue("(Nd)", out, log_scale);
}

static PyObject *sweep_inward(PyObject *self, PyObject *args)
{
    PyArrayObject *fa;
    PyObject *out;
    double h, u_last, u_second_last, log_scale = 0.0;
    Py_ssize_t stop;
    if (begin(args, 1, &fa, &out, &h, &u_last, &u_second_last, &stop) < 0)
        return NULL;
    const double *f = PyArray_DATA(fa), t = h * h / 12.0;
    double *u = PyArray_DATA((PyArrayObject *)out);
    Py_ssize_t n = PyArray_DIM(fa, 0), m = n - stop;
    u[m - 1] = u_last;
    u[m - 2] = u_second_last;
    for (Py_ssize_t i = n - 2; i > stop; i--) {
        Py_ssize_t j = i - stop;
        double prv = ((2.0 + 10.0 * t * f[i]) * u[j]
                      - (1.0 - t * f[i + 1]) * u[j + 1]) / (1.0 - t * f[i - 1]);
        if (prv > GUARD || prv < -GUARD) {
            for (Py_ssize_t k = j; k < m; k++)
                u[k] *= SHRINK;
            prv *= SHRINK;
            log_scale += -log(SHRINK);
        }
        u[j - 1] = prv;
    }
    Py_DECREF(fa);
    return Py_BuildValue("(Nd)", out, log_scale);
}

static PyMethodDef methods[] = {
    {"sweep_outward", sweep_outward, METH_VARARGS, "(f, h, u0, u1, stop) -> (u[0..stop], log_scale)"},
    {"sweep_inward", sweep_inward, METH_VARARGS, "(f, h, u_last, u_second_last, stop) -> (u[stop..], log_scale)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_numerov_cy", NULL, -1, methods};

PyMODINIT_FUNC PyInit__numerov_cy(void)
{
    import_array();
    return PyModule_Create(&module);
}
