/* Compiled Adam step: one pass over each parameter's four buffers.
 *
 * step() takes the arguments of gedraft.optim.numpy_step, the NumPy form of
 * the same update, and leaves the same bits: for each element it performs
 * the floating-point operations of Adam's textbook expressions in their
 * order,
 *
 *     m = m*b1 + g*(1-b1)
 *     v = v*b2 + (g*(1-b2))*g
 *     x = x - ((m/c1)*lr) / (sqrt(v/c2) + eps)
 *
 * each rounded to double as NumPy rounds it. That holds only when the
 * compiler neither contracts a product and a sum into one fused multiply-add
 * (-ffp-contract=off) nor flushes subnormals to zero (no -ffast-math or
 * -Ofast); setup.py holds the flags this file is built with.
 *
 * Every operand is checked before anything is written, so a refused call
 * leaves every buffer as it was.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <string.h>

enum { PARAM, GRAD, M, V, OPERANDS };

static const char *const operand_names[OPERANDS] = {"parameter", "gradient", "m", "v"};

typedef struct {
    double b1, a1, b2, a2, lr, eps, c1, c2;
} Hyper;

/* A static helper with restrict pointers, so the loop vectorizes. */
static void
update(double *restrict x, const double *restrict g, double *restrict m, double *restrict v,
       Py_ssize_t n, Hyper h)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        double mi = m[i] * h.b1 + g[i] * h.a1;
        double vi = v[i] * h.b2 + (g[i] * h.a2) * g[i];
        m[i] = mi;
        v[i] = vi;
        x[i] = x[i] - ((mi / h.c1) * h.lr) / (sqrt(vi / h.c2) + h.eps);
    }
}

static int
overlap(const Py_buffer *a, const Py_buffer *b)
{
    const char *p = a->buf, *q = b->buf;
    return a->len > 0 && b->len > 0 && p < q + b->len && q < p + a->len;
}

/* Take operand k of entry i as a buffer of float64 in C order, of the
 * parameter's shape, writable unless it is the gradient. */
static int
acquire(PyObject *obj, Py_buffer *views, int k, Py_ssize_t i)
{
    Py_buffer *view = &views[k];
    const char *what = operand_names[k];
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *problem = NULL;
    if (view->format == NULL || strcmp(view->format, "d") != 0 || view->itemsize != 8)
        problem = "is not float64";
    else if (!PyBuffer_IsContiguous(view, 'C'))
        problem = "is not C-contiguous";
    else if (k != GRAD && view->readonly)
        problem = "is read-only";
    else if (view->ndim != views[PARAM].ndim
             || (view->ndim > 0
                 && memcmp(view->shape, views[PARAM].shape,
                           (size_t)view->ndim * sizeof(Py_ssize_t)) != 0))
        problem = "does not have the parameter's shape";
    for (int j = 0; problem == NULL && j < k; j++)
        if (overlap(view, &views[j]))
            problem = "overlaps another operand";
    if (problem == NULL)
        return 0;
    PyErr_Format(PyExc_ValueError, "entry %zd: the %s %s", i, what, problem);
    PyBuffer_Release(view);
    return -1;
}

static PyObject *
step(PyObject *self, PyObject *args)
{
    PyObject *lists[OPERANDS];
    Hyper h;
    if (!PyArg_ParseTuple(args, "OOOOdddddd:step", &lists[PARAM], &lists[GRAD], &lists[M],
                          &lists[V], &h.lr, &h.b1, &h.b2, &h.eps, &h.c1, &h.c2))
        return NULL;
    h.a1 = 1.0 - h.b1;
    h.a2 = 1.0 - h.b2;

    PyObject *seqs[OPERANDS] = {NULL};
    Py_buffer *views = NULL;
    Py_ssize_t n = 0;
    PyObject *result = NULL;
    for (int k = 0; k < OPERANDS; k++) {
        seqs[k] = PySequence_Fast(lists[k], "step takes four sequences of arrays");
        if (seqs[k] == NULL)
            goto done;
        if (k > 0 && PySequence_Fast_GET_SIZE(seqs[k]) != n) {
            PyErr_SetString(PyExc_ValueError, "step takes four sequences of the same length");
            goto done;
        }
        n = PySequence_Fast_GET_SIZE(seqs[k]);
    }
    views = PyMem_Calloc(n > 0 ? (size_t)n * OPERANDS : 1, sizeof(Py_buffer));
    if (views == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* every check first; entries with no gradient are skipped */
    for (Py_ssize_t i = 0; i < n; i++) {
        if (PySequence_Fast_GET_ITEM(seqs[GRAD], i) == Py_None)
            continue;
        for (int k = 0; k < OPERANDS; k++) {
            if (acquire(PySequence_Fast_GET_ITEM(seqs[k], i), &views[i * OPERANDS], k, i) < 0)
                goto done;
        }
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_buffer *e = &views[i * OPERANDS];
        if (e[PARAM].obj != NULL)
            update(e[PARAM].buf, e[GRAD].buf, e[M].buf, e[V].buf, e[PARAM].len / 8, h);
    }
    result = Py_None;
    Py_INCREF(result);
done:
    /* a view that was never taken, or was refused, has no obj */
    for (Py_ssize_t j = 0; views != NULL && j < n * OPERANDS; j++)
        if (views[j].obj != NULL)
            PyBuffer_Release(&views[j]);
    PyMem_Free(views);
    for (int k = 0; k < OPERANDS; k++)
        Py_XDECREF(seqs[k]);
    return result;
}

static PyMethodDef methods[] = {
    {"step", step, METH_VARARGS,
     "step(values, grads, m, v, lr, beta1, beta2, eps, c1, c2)\n--\n\n"
     "One Adam step in place over equal-length sequences of parameter,\n"
     "gradient, m and v arrays; entries whose gradient is None are skipped.\n"
     "c1 and c2 are the bias corrections 1 - beta**t. Bit-identical to\n"
     "gedraft.optim.numpy_step. Raises ValueError, before writing anything,\n"
     "unless every operand is float64, C-contiguous, of its parameter's\n"
     "shape, writable where it is written, and apart from the others."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "gedraft._adam",
    "Compiled Adam step, bit-identical to gedraft.optim.numpy_step.",
    0,
    methods,
};

PyMODINIT_FUNC
PyInit__adam(void)
{
    return PyModule_Create(&module);
}
