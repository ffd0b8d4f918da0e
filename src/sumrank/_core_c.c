/* Compiled kernels for the exhaustive-enumeration hot loops.
 *
 * Same API, values, ``enumerated`` counts and BudgetExceeded arguments as
 * the pure twin in ``_core_py``; ``core`` picks one at import time.
 * Element codes are base-q digit codes below order = q^M < 2^63, so each
 * fits one 64-bit integer.  Message-space sizes (order^k) are compared
 * with the budget as Python integers, so a space past 2^63 is refused as
 * the pure kernel refuses it, never wrapped.  ``setup.py`` builds it; a
 * C compiler is all it needs.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>

typedef long long i64;

#define MAX_DIGITS 63

/* From sumrank._core_py: the exception and the two budget rules shared
 * with the pure kernels. */
static PyObject *BudgetExceeded, *message_stop, *children_per_node;

/* -- field arithmetic on element codes ----------------------------------- */

static i64 add_code(i64 a, i64 b, int q, int M)
{
    i64 out = 0, p = 1;
    if (q == 2)
        return a ^ b;
    for (int i = 0; i < M; i++) {
        out += (((a / p) % q + (b / p) % q) % q) * p;
        p *= q;
    }
    return out;
}

/* Rank over F_q of the M x cnt matrix whose columns are the base-q digit
 * expansions of codes[0..cnt).  The rank is at most M, so the scan stops
 * there. */
static int expand_rank_c(const i64 *codes, Py_ssize_t cnt, int q, int M)
{
    int r = 0;
    if (q == 2) {
        i64 basis[MAX_DIGITS];
        for (int i = 0; i < M; i++)
            basis[i] = 0;
        for (Py_ssize_t i = 0; i < cnt && r < M; i++) {
            i64 c = codes[i];
            while (c) {
                int top = 63 - __builtin_clzll((unsigned long long)c);
                if (basis[top]) {
                    c ^= basis[top];
                } else {
                    basis[top] = c;
                    r++;
                    break;
                }
            }
        }
        return r;
    }
    /* eliminate on the transpose: each expansion is one row of length M */
    i64 piv[MAX_DIGITS][MAX_DIGITS], row[MAX_DIGITS];
    int pivcol[MAX_DIGITS];
    for (Py_ssize_t i = 0; i < cnt && r < M; i++) {
        i64 c = codes[i];
        for (int j = 0; j < M; j++) {
            row[j] = c % q;
            c /= q;
        }
        for (int t = 0; t < r; t++) {
            i64 f = row[pivcol[t]];
            if (f)
                for (int j = 0; j < M; j++)
                    row[j] = ((row[j] - f * piv[t][j]) % q + q) % q;
        }
        int lead = -1;
        for (int j = 0; j < M && lead < 0; j++)
            if (row[j])
                lead = j;
        if (lead < 0)
            continue;
        i64 inv = 1; /* q is prime, so row[lead] * inv = 1 for one inv < q */
        while (inv < q && (row[lead] * inv) % q != 1)
            inv++;
        for (int j = 0; j < M; j++)
            piv[r][j] = (row[j] * inv) % q;
        pivcol[r++] = lead;
    }
    return r;
}

/* Sizes and tables of one kernel call: messages of k codes times k x n
 * matrices over F_{q^M}. */
typedef struct {
    int q, M, k, n;
    i64 order;
    i64 *exp_t, *log_t;
} Field;

/* out[0..n) = u (k codes) times the k x n matrix mat. */
static void vec_matmul(const Field *f, const i64 *u, const i64 *mat, i64 *out)
{
    for (int c = 0; c < f->n; c++)
        out[c] = 0;
    for (int r = 0; r < f->k; r++) {
        if (u[r] == 0)
            continue;
        i64 lu = f->log_t[u[r]];
        const i64 *row = mat + (i64)r * f->n;
        for (int c = 0; c < f->n; c++)
            if (row[c]) {
                i64 prod = f->exp_t[(lu + f->log_t[row[c]]) % (f->order - 1)];
                out[c] = add_code(out[c], prod, f->q, f->M);
            }
    }
}

/* The k base-order digits of message index idx, lowest first. */
static void decode_message(const Field *f, i64 idx, i64 *u)
{
    for (int i = 0; i < f->k; i++) {
        u[i] = idx % f->order;
        idx /= f->order;
    }
}

/* -- argument conversion --------------------------------------------------- */

/* q^M into *order; ValueError unless q >= 2, M >= 1 and q^M < 2^63. */
static int field_order(int q, int M, i64 *order)
{
    int i = 0;
    for (*order = 1; q >= 2 && i < M && *order <= LLONG_MAX / q; i++)
        *order *= q;
    if (q >= 2 && M >= 1 && i == M)
        return 0;
    PyErr_Format(PyExc_ValueError, "no kernel field with q = %d, M = %d", q, M);
    return -1;
}

/* Write the want codes of seq to buf, each in [0, bound). */
static int take_codes(PyObject *seq, Py_ssize_t want, i64 bound, i64 *buf)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of element codes");
    if (fast == NULL)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(fast) == want;
    for (Py_ssize_t i = 0; ok && i < want; i++) {
        buf[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        ok = !PyErr_Occurred() && buf[i] >= 0 && buf[i] < bound;
    }
    Py_DECREF(fast);
    if (!ok && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "expected %zd codes in [0, %lld)", want, bound);
    return ok ? 0 : -1;
}

/* A new buffer holding the count codes of seq, each in [0, bound). */
static i64 *codes_of(PyObject *seq, Py_ssize_t count, i64 bound)
{
    i64 *buf = malloc((size_t)(count > 0 ? count : 1) * sizeof(i64));
    if (buf == NULL)
        return (i64 *)PyErr_NoMemory();
    if (take_codes(seq, count, bound, buf) == 0)
        return buf;
    free(buf);
    return NULL;
}

/* Row-major copy into buf of a k x n matrix given as k rows of n codes. */
static int rows_into(PyObject *rows, const Field *f, i64 *buf)
{
    PyObject *fast = PySequence_Fast(rows, "expected a list of rows");
    if (fast == NULL)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(fast) == f->k;
    if (!ok)
        PyErr_Format(PyExc_ValueError, "expected %d rows", f->k);
    for (int r = 0; ok && r < f->k; r++)
        ok = take_codes(PySequence_Fast_GET_ITEM(fast, r), f->n, f->order,
                        buf + (i64)r * f->n) == 0;
    Py_DECREF(fast);
    return ok ? 0 : -1;
}

/* Check f's q, M and order, and copy the exp/log tables into it. */
static int load_field(Field *f, PyObject *exp, PyObject *log)
{
    i64 order;
    f->exp_t = f->log_t = NULL;
    if (field_order(f->q, f->M, &order) < 0)
        return -1;
    if (order != f->order) {
        PyErr_Format(PyExc_ValueError, "order %lld is not %d^%d", f->order, f->q, f->M);
        return -1;
    }
    f->exp_t = codes_of(exp, order - 1, order);
    f->log_t = f->exp_t ? codes_of(log, order, order) : NULL;
    return f->log_t ? 0 : -1;
}

static void free_field(Field *f)
{
    free(f->exp_t);
    free(f->log_t);
}

/* -- expand_rank ----------------------------------------------------------- */

static PyObject *py_expand_rank(PyObject *self, PyObject *args)
{
    PyObject *codes;
    int q, M;
    i64 order, *buf;
    if (!PyArg_ParseTuple(args, "Oii", &codes, &q, &M))
        return NULL;
    /* M = 0 spans the zero space: its one code is 0, and every rank is 0 */
    if (M == 0 && q >= 2)
        order = 1;
    else if (field_order(q, M, &order) < 0)
        return NULL;
    Py_ssize_t cnt = PyObject_Length(codes);
    if (cnt < 0 || (buf = codes_of(codes, cnt, order)) == NULL)
        return NULL;
    int r = expand_rank_c(buf, cnt, q, M);
    free(buf);
    return PyLong_FromLong(r);
}

/* -- block_min_sum_rank ---------------------------------------------------- */

static PyObject *py_block_min_sum_rank(PyObject *self, PyObject *args)
{
    PyObject *gen_rows, *parts, *exp, *log, *budget;
    Field f = {0};
    i64 stop;
    if (!PyArg_ParseTuple(args, "OOiiLOOO", &gen_rows, &parts, &f.q, &f.M, &f.order, &exp,
                          &log, &budget))
        return NULL;
    Py_ssize_t k = PyObject_Length(gen_rows);
    if (k < 1 || k > INT_MAX) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "need one to INT_MAX generator rows");
        return NULL;
    }
    /* refuse the message space before converting anything */
    PyObject *stop_p = PyObject_CallFunction(message_stop, "nLO", k, f.order, budget);
    stop = stop_p ? PyLong_AsLongLong(stop_p) : -1;
    Py_XDECREF(stop_p);
    if (PyErr_Occurred())
        return NULL;

    PyObject *row0 = PySequence_GetItem(gen_rows, 0), *result = NULL;
    Py_ssize_t n = row0 ? PyObject_Length(row0) : -1;
    Py_XDECREF(row0);
    Py_ssize_t nparts = n >= 0 ? PyObject_Length(parts) : -1;
    f.k = (int)k;
    f.n = (int)n;
    i64 *gen = NULL, *sizes = NULL, *u = malloc((size_t)k * sizeof(i64));
    i64 *v = malloc((size_t)(n + 1) * sizeof(i64)), total = 0;
    if (nparts < 0 || load_field(&f, exp, log) < 0 ||
        (gen = malloc((size_t)(k * n + 1) * sizeof(i64))) == NULL || u == NULL ||
        v == NULL || rows_into(gen_rows, &f, gen) < 0 ||
        (sizes = codes_of(parts, nparts, n + 1)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < nparts; i++)
        total += sizes[i];
    if (total > n) {
        PyErr_SetString(PyExc_ValueError, "parts exceed the code length");
        goto done;
    }
    i64 best = -1;
    Py_BEGIN_ALLOW_THREADS
    for (i64 idx = 1; idx < stop; idx++) {
        decode_message(&f, idx, u);
        vec_matmul(&f, u, gen, v);
        i64 w = 0, a = 0;
        for (Py_ssize_t pi = 0; pi < nparts; pi++) {
            w += expand_rank_c(v + a, sizes[pi], f.q, f.M);
            a += sizes[pi];
            if (best >= 0 && w >= best)
                break;
        }
        if (best < 0 || w < best)
            best = w;
    }
    Py_END_ALLOW_THREADS
    result = Py_BuildValue("(LL)", best, stop - 1);
done:
    if (result == NULL && !PyErr_Occurred())
        PyErr_NoMemory();
    free(gen);
    free(sizes);
    free(u);
    free(v);
    free_field(&f);
    return result;
}

/* -- conv_column_distance -------------------------------------------------- */

typedef struct {
    Field f;
    i64 *coeffs;  /* (m+1) * k * n codes, G_0 first */
    int j, m, systematic;
    i64 qmk, budget, enumerated, best;
    i64 *hist;    /* (j+1) * k message digits */
    i64 *seen;    /* j+1: the least weight of blocks 0..t met under best */
    i64 *scratch; /* (j+3) * n: a carry per depth, one term, one private acc */
} Conv;

/* acc = sum over i >= 1 of u_{t-i} G_i, from fixed history blocks. */
static void carry_for(Conv *cx, int t, i64 *acc)
{
    const Field *f = &cx->f;
    i64 *term = cx->scratch + (i64)(cx->j + 1) * f->n;
    for (int c = 0; c < f->n; c++)
        acc[c] = 0;
    for (int i = 1; i <= (t < cx->m ? t : cx->m); i++) {
        const i64 *u = cx->hist + (i64)(t - i) * f->k;
        int nz = 0;
        for (int c = 0; c < f->k && !nz; c++)
            nz = u[c] != 0;
        if (!nz)
            continue;
        vec_matmul(f, u, cx->coeffs + (i64)i * f->k * f->n, term);
        for (int c = 0; c < f->n; c++)
            acc[c] = add_code(acc[c], term[c], f->q, f->M);
    }
}

/* Sets u_t..u_j = 0 and records s in seen[i] at each depth i >= t whose
 * blocks t..i all vanish; true iff every remaining block vanishes. */
static int record_zero_extension(Conv *cx, int t, i64 s)
{
    const Field *f = &cx->f;
    /* private region past the per-depth slots, so callers' carries survive */
    i64 *acc = cx->scratch + (i64)(cx->j + 2) * f->n;
    for (i64 i = (i64)t * f->k; i < (i64)(cx->j + 1) * f->k; i++)
        cx->hist[i] = 0;
    for (int i = t; i <= cx->j; i++) {
        carry_for(cx, i, acc);
        for (int c = 0; c < f->n; c++)
            if (acc[c])
                return 0;
        if (s < cx->seen[i])
            cx->seen[i] = s;
    }
    return 1;
}

/* Pruned depth-first search from depth t with partial weight s; -1 when
 * the budget is refused.  Every child of a visited node counts as one
 * enumerated node, so the node's children are charged before the loop. */
static int rec(Conv *cx, int t, i64 s)
{
    const Field *f = &cx->f;
    if (s >= cx->best)
        return 0;
    if (t > cx->j) {
        cx->best = s;
        return 0;
    }
    if (cx->systematic && t > 0 && s == cx->best - 1) {
        if (record_zero_extension(cx, t, s))
            cx->best = s;
        return 0;
    }
    i64 children = cx->qmk - (t == 0);
    if (children > cx->budget - cx->enumerated)
        return -1;
    cx->enumerated += children;
    i64 *carry = cx->scratch + (i64)t * f->n;
    i64 *v = cx->scratch + (i64)(cx->j + 1) * f->n;
    i64 *u = cx->hist + (i64)t * f->k;
    carry_for(cx, t, carry);
    for (i64 idx = t == 0; idx < cx->qmk; idx++) {
        decode_message(f, idx, u);
        if (idx == 0) {
            for (int c = 0; c < f->n; c++)
                v[c] = carry[c];
        } else {
            vec_matmul(f, u, cx->coeffs, v);
            for (int c = 0; c < f->n; c++)
                v[c] = add_code(v[c], carry[c], f->q, f->M);
        }
        i64 w = s + expand_rank_c(v, f->n, f->q, f->M);
        if (w >= cx->best)
            continue;
        if (w < cx->seen[t])
            cx->seen[t] = w;
        if (rec(cx, t + 1, w) < 0)
            return -1;
    }
    return 0;
}

static PyObject *py_conv_column_distance(PyObject *self, PyObject *args)
{
    PyObject *coeff_rows, *exp, *log, *budget, *fast = NULL, *result = NULL;
    Conv cx = {{0}};
    if (!PyArg_ParseTuple(args, "OiiiiiLOOOp", &coeff_rows, &cx.f.k, &cx.f.n, &cx.j,
                          &cx.f.q, &cx.f.M, &cx.f.order, &exp, &log, &budget,
                          &cx.systematic))
        return NULL;
    int k = cx.f.k, n = cx.f.n, j = cx.j;
    /* the search recurses once per depth, as the pure one does */
    if (k < 1 || n < 1 || j < 0 || j >= Py_GetRecursionLimit()) {
        PyErr_SetString(PyExc_ValueError, "need k, n >= 1 and 0 <= j < recursion limit");
        return NULL;
    }
    /* refuse a root whose children alone pass the budget before converting
     * anything; the count then fits 64 bits */
    PyObject *qmk = PyObject_CallFunction(children_per_node, "iLO", k, cx.f.order, budget);
    int overflow = 0; /* a budget past 2^63 - 1 acts as 2^63 - 1: no search gets there */
    if (qmk != NULL) {
        cx.qmk = PyLong_AsLongLong(qmk);
        cx.budget = PyLong_AsLongLongAndOverflow(budget, &overflow);
        Py_DECREF(qmk);
    }
    if (qmk == NULL || PyErr_Occurred())
        return NULL;
    if (overflow > 0)
        cx.budget = LLONG_MAX;

    Py_ssize_t levels = PyObject_Length(coeff_rows);
    int ok = levels >= 1 && load_field(&cx.f, exp, log) == 0 &&
             (fast = PySequence_Fast(coeff_rows, "expected a list of matrices")) != NULL &&
             (cx.coeffs = malloc((size_t)levels * k * n * sizeof(i64))) != NULL &&
             (cx.hist = malloc((size_t)(j + 1) * k * sizeof(i64))) != NULL &&
             (cx.seen = malloc((size_t)(j + 1) * sizeof(i64))) != NULL &&
             (cx.scratch = malloc((size_t)(j + 3) * n * sizeof(i64))) != NULL;
    if (!ok && !PyErr_Occurred() && levels < 1)
        PyErr_SetString(PyExc_ValueError, "need at least one coefficient matrix");
    else if (!ok && !PyErr_Occurred())
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; ok && i < levels; i++)
        ok = rows_into(PySequence_Fast_GET_ITEM(fast, i), &cx.f,
                       cx.coeffs + (i64)i * k * n) == 0;
    if (ok) {
        cx.m = (int)(levels - 1);
        cx.best = (i64)n * (j + 1) + 1; /* strictly above any achievable weight */
        for (int t = 0; t <= j; t++)
            cx.seen[t] = cx.best;
        Py_BEGIN_ALLOW_THREADS
        ok = rec(&cx, 0, 0) == 0;
        Py_END_ALLOW_THREADS
        if (ok) {
            PyObject *dists = PyList_New(j + 1);
            for (int t = 0; dists != NULL && t <= j; t++) {
                /* every prefix lighter than d^j is met: d^t = min(seen_t, d^j) */
                PyObject *d = PyLong_FromLongLong(cx.seen[t] < cx.best ? cx.seen[t]
                                                                       : cx.best);
                if (d == NULL)
                    Py_CLEAR(dists);
                else
                    PyList_SET_ITEM(dists, t, d);
            }
            if (dists != NULL)
                result = Py_BuildValue("(NL)", dists, cx.enumerated);
        } else {
            /* the children that crossed the budget are named as budget + 1,
             * as counting them one by one would */
            PyObject *exc = PyObject_CallFunction(BudgetExceeded, "LO", cx.budget + 1,
                                                  budget);
            if (exc != NULL)
                PyErr_SetObject(BudgetExceeded, exc);
            Py_XDECREF(exc);
        }
    }
    Py_XDECREF(fast);
    free(cx.coeffs);
    free(cx.hist);
    free(cx.seen);
    free(cx.scratch);
    free_field(&cx.f);
    return result;
}

/* -- module ------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"expand_rank", py_expand_rank, METH_VARARGS,
     "expand_rank(codes, q, M): rank over F_q of the codes' digit expansions."},
    {"block_min_sum_rank", py_block_min_sum_rank, METH_VARARGS,
     "block_min_sum_rank(gen_rows, parts, q, M, order, exp, log, budget)\n"
     "-> (minimum sum-rank weight, enumerated)"},
    {"conv_column_distance", py_conv_column_distance, METH_VARARGS,
     "conv_column_distance(coeff_rows, k, n, j, q, M, order, exp, log, budget,\n"
     "systematic) -> ([d^0, ..., d^j] column sum-rank distances, enumerated nodes)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_core_c",
    "Compiled kernels for the exhaustive-enumeration hot loops; same API as the\n"
    "pure twin in _core_py.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__core_c(void)
{
    PyObject *pure = PyImport_ImportModule("sumrank._core_py"), *mod = NULL;
    if (pure == NULL)
        return NULL;
    Py_XSETREF(BudgetExceeded, PyObject_GetAttrString(pure, "BudgetExceeded"));
    Py_XSETREF(message_stop, PyObject_GetAttrString(pure, "message_stop"));
    Py_XSETREF(children_per_node, PyObject_GetAttrString(pure, "children_per_node"));
    Py_DECREF(pure);
    if (BudgetExceeded && message_stop && children_per_node)
        mod = PyModule_Create(&module);
    if (mod != NULL && (PyModule_AddObjectRef(mod, "BudgetExceeded", BudgetExceeded) < 0 ||
                        PyModule_AddStringConstant(mod, "IMPLEMENTATION", "c") < 0))
        Py_CLEAR(mod);
    return mod;
}
