/* Compiled Numerov sweep: the hot loop of every bound solve and phase sweep.

Semantics and operation order match ``_numerov_py`` exactly: u'' = f u on a
uniform mesh, u[i+1] = ((2 + 10 T_i) u[i] - (1 - T_{i-1}) u[i-1]) / (1 - T_{i+1})
with T_i = h^2 f_i / 12, and the computed prefix rescaled by SHRINK whenever
|u| passes GUARD (true_u = u * exp(log_scale)). Built with -ffp-contract=off,
so no multiply-add is fused and every value is bit-identical to the fallback's.
This is the only recurrence: ``_kernels.sweep_inward`` runs it on the
reversed mesh. f is read through its byte stride, so that reversed view (or
any other aligned 1-D view) is swept in place, without a contiguous copy.
*/
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <math.h>

#define GUARD 1e250
#define SHRINK 1e-250

/* sweep_outward(f, h, u0, u1, stop) -> (u[0..stop], log_scale), 1 <= stop < len(f). */
static PyObject *sweep_outward(PyObject *self, PyObject *args)
{
    PyObject *f_obj, *out = NULL;
    double h, u0, u1, log_scale = 0.0;
    Py_ssize_t stop;
    if (!PyArg_ParseTuple(args, "Odddn", &f_obj, &h, &u0, &u1, &stop))
        return NULL;
    PyArrayObject *fa = (PyArrayObject *)PyArray_FROMANY(f_obj, NPY_DOUBLE, 1, 1,
                                                         NPY_ARRAY_ALIGNED);
    if (fa == NULL)
        return NULL;
    Py_ssize_t n = PyArray_DIM(fa, 0);
    npy_intp len = stop + 1;
    if (stop < 1 || stop >= n)
        PyErr_Format(PyExc_ValueError, "stop %zd out of range for %zd points", stop, n);
    else
        out = PyArray_SimpleNew(1, &len, NPY_DOUBLE);
    if (out == NULL) {
        Py_DECREF(fa);
        return NULL;
    }
    const char *f = PyArray_BYTES(fa);
    const npy_intp fs = PyArray_STRIDE(fa, 0);
#define F(i) (*(const double *)(f + (i) * fs))
    const double t = h * h / 12.0;
    double *u = PyArray_DATA((PyArrayObject *)out);
    u[0] = u0;
    u[1] = u1;
    for (Py_ssize_t i = 1; i < stop; i++) {
        double nxt = ((2.0 + 10.0 * t * F(i)) * u[i]
                      - (1.0 - t * F(i - 1)) * u[i - 1]) / (1.0 - t * F(i + 1));
        if (nxt > GUARD || nxt < -GUARD) {
            for (Py_ssize_t j = 0; j <= i; j++)
                u[j] *= SHRINK;
            nxt *= SHRINK;
            log_scale += -log(SHRINK);
        }
        u[i + 1] = nxt;
    }
#undef F
    Py_DECREF(fa);
    return Py_BuildValue("(Nd)", out, log_scale);
}

static PyMethodDef methods[] = {
    {"sweep_outward", sweep_outward, METH_VARARGS, "(f, h, u0, u1, stop) -> (u[0..stop], log_scale)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_numerov_cy", NULL, -1, methods};

PyMODINIT_FUNC PyInit__numerov_cy(void)
{
    import_array();
    return PyModule_Create(&module);
}
