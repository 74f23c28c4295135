/*
 * The CSQ depth-first random walk of repro.core.selection (paper
 * §III.C.1-2), compiled.
 *
 * Draw-for-draw contract: a walk consumes exactly the draws the Python
 * loop it replaces consumed (tests/oracles.py::oracle_walk), from the
 * caller's numpy bit generator, in the same order:
 *
 *   - every node pushed on the DFS stack (the source->edge segment first,
 *     then each forward hop) shuffles a copy of its sorted neighbour row
 *     the way numpy's Generator.shuffle shuffles a list: Fisher-Yates from
 *     the last index down to 1, each index drawn by numpy's
 *     random_interval (masked rejection over next_uint32 for bounds below
 *     2^32, next_uint64 above);
 *   - under PM, a node that passes the overlap checks at a depth whose
 *     admission probability is positive draws one next_double, which is
 *     Generator.random().
 *
 * So contacts, routes, message counts and the generator's state after the
 * walk equal the Python loop's, and every stored cell and golden table
 * stays byte-identical.
 *
 * A Walker binds one CSR adjacency (int64 indptr/indices), the walk
 * parameters and its scratch buffers once; Walker.walk runs one CSQ.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy/random/bitgen.h: the struct behind Generator.bit_generator.capsule */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's random_interval: a uniform integer in [0, max] */
static uint64_t
random_interval(bitgen_t *bg, uint64_t max)
{
    uint64_t mask = max, value;

    if (max == 0)
        return 0;
    /* smallest bit mask >= max */
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffUL) {
        while ((value = (bg->next_uint32(bg->state) & mask)) > max)
            ;
    } else {
        while ((value = (bg->next_uint64(bg->state) & mask)) > max)
            ;
    }
    return value;
}

/* Generator.shuffle on a list of length n */
static void
shuffle(int64_t *x, int64_t n, bitgen_t *bg)
{
    for (int64_t i = n - 1; i >= 1; i--) {
        int64_t j = (int64_t)random_interval(bg, (uint64_t)i);
        int64_t t = x[i];
        x[i] = x[j];
        x[j] = t;
    }
}

typedef struct {
    PyObject_HEAD
    /* the adjacency, held for the walker's lifetime */
    Py_buffer indptr_view, indices_view;
    const int64_t *indptr, *indices;
    int64_t n, max_degree;
    /* walk parameters */
    int64_t r, cap; /* cap < 0: no step cap */
    int loop_prevention, em;
    double *pm_prob; /* admission probability at depths 0..r */
    /* scratch reused by every walk, sized once for any walk */
    uint32_t *stamp; /* stamp[v] == mark: v saw the current walk */
    uint32_t mark;
    int64_t *path, *next, *end; /* r + 1 frames: node, cursor, row end */
    int64_t *order;             /* (r + 1) * max_degree shuffled ids */
    int64_t *seg;               /* the launch segment, r + 1 at most */
    int64_t *fwd, *bt;          /* the transmitters, r + 1 + steps each */
} Walker;

static int64_t *
alloc64(int64_t count)
{
    return malloc((size_t)(count + 1) * sizeof(int64_t));
}

/* push node u as frame `depth` with its shuffled neighbour row */
static void
push(Walker *w, int64_t depth, int64_t u, bitgen_t *bg)
{
    int64_t start = depth ? w->end[depth - 1] : 0;
    int64_t a = w->indptr[u], deg = w->indptr[u + 1] - a;

    memcpy(w->order + start, w->indices + a, (size_t)deg * sizeof(int64_t));
    shuffle(w->order + start, deg, bg);
    w->path[depth] = u;
    w->next[depth] = start;
    w->end[depth] = start + deg;
}

typedef struct {
    int64_t contact; /* -1: none */
    int64_t depth;   /* frames left on the stack: the route's length */
    int64_t nfwd, nbt, seen, hops;
    int exhausted;
} walk_result;

/* One CSQ launched along seg[0..nseg), nseg <= r + 1 (source -> edge) */
static void
csq_walk(Walker *w, const char *blocked, const int64_t *seg, int64_t nseg,
         bitgen_t *bg, walk_result *out)
{
    int64_t depth = 0, steps = 0, nfwd = 0, nbt = 0, hops = 0;
    int64_t contact = -1;

    if (++w->mark == 0) {
        memset(w->stamp, 0, (size_t)w->n * sizeof(uint32_t));
        w->mark = 1;
    }
    for (int64_t i = 0; i < nseg; i++)
        push(w, depth++, seg[i], bg);
    for (int64_t i = 0; i < nseg; i++) {
        w->stamp[seg[i]] = w->mark;
        if (i + 1 < nseg)
            w->fwd[nfwd++] = seg[i]; /* source -> edge (step 1) */
    }
    out->seen = nseg;

    while (depth > 0) {
        int64_t top = depth - 1, node = w->path[top], nxt = -1;

        if (w->cap >= 0 && steps >= w->cap)
            break;
        if (top < w->r) { /* may advance deeper (step 5 bounds it at r) */
            int64_t *cur = &w->next[top], stop = w->end[top];
            if (w->loop_prevention) {
                while (*cur < stop) {
                    int64_t cand = w->order[(*cur)++];
                    if (w->stamp[cand] != w->mark) {
                        nxt = cand;
                        break;
                    }
                }
            } else {
                int64_t prev = top ? w->path[top - 1] : -1;
                while (*cur < stop) {
                    int64_t cand = w->order[(*cur)++];
                    if (cand != prev) {
                        nxt = cand;
                        break;
                    }
                }
            }
        }
        if (nxt < 0) { /* stuck: backtrack (step 5) */
            depth--;
            if (depth > 0) {
                w->bt[nbt++] = node;
                steps++;
            }
            continue;
        }
        /* forward the CSQ to nxt */
        w->fwd[nfwd++] = node;
        steps++;
        if (w->stamp[nxt] != w->mark) {
            w->stamp[nxt] = w->mark;
            out->seen++;
        }
        push(w, depth++, nxt, bg);
        hops = top + 1;
        /* admission at the receiving node (step 3): PM draws only when
           the overlap checks pass at a depth of positive probability */
        if (!blocked[nxt]) {
            double prob = w->pm_prob[hops];
            if (w->em || (prob > 0.0 && bg->next_double(bg->state) < prob)) {
                contact = nxt;
                break;
            }
        }
    }
    out->contact = contact;
    out->depth = depth;
    out->nfwd = nfwd;
    out->nbt = nbt;
    out->hops = hops;
    /* the walk backtracked past its origin: region exhausted */
    out->exhausted = depth == 0;
}

/* ------------------------------------------------------------------ */
/* Python binding                                                      */
/* ------------------------------------------------------------------ */
static int
int64_view(PyObject *obj, Py_buffer *view, const char *what)
{
    const char *fmt;
    size_t len;

    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    fmt = view->format ? view->format : "B";
    len = strlen(fmt);
    if (view->itemsize != 8 || view->ndim != 1 || len == 0 ||
        strchr("lq", fmt[len - 1]) == NULL) {
        PyErr_Format(PyExc_TypeError, "%s must be a 1-d int64 array", what);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static void
Walker_dealloc(Walker *w)
{
    if (w->indptr_view.obj != NULL)
        PyBuffer_Release(&w->indptr_view);
    if (w->indices_view.obj != NULL)
        PyBuffer_Release(&w->indices_view);
    free(w->pm_prob);
    free(w->stamp);
    free(w->path);
    free(w->next);
    free(w->end);
    free(w->order);
    free(w->seg);
    free(w->fwd);
    free(w->bt);
    Py_TYPE(w)->tp_free((PyObject *)w);
}

static PyObject *
Walker_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"indptr", "indices", "r", "cap",
                             "loop_prevention", "em", "pm_prob", NULL};
    PyObject *indptr, *indices, *cap, *pm_prob, *probs;
    Py_ssize_t r;
    int64_t steps;
    int loop_prevention, em;
    Walker *w;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOnOppO", kwlist, &indptr,
                                     &indices, &r, &cap, &loop_prevention, &em,
                                     &pm_prob))
        return NULL;
    if (r < 0) {
        PyErr_SetString(PyExc_ValueError, "r must be >= 0");
        return NULL;
    }
    w = (Walker *)type->tp_alloc(type, 0);
    if (w == NULL)
        return NULL;
    w->r = r;
    w->loop_prevention = loop_prevention;
    w->em = em;
    w->cap = -1;
    if (cap != Py_None) {
        w->cap = PyLong_AsLongLong(cap);
        if (w->cap == -1 && PyErr_Occurred())
            goto fail;
        if (w->cap < 0) {
            PyErr_SetString(PyExc_ValueError, "cap must be None or >= 0");
            goto fail;
        }
    }
    if (int64_view(indptr, &w->indptr_view, "indptr") < 0)
        goto fail;
    w->indptr = w->indptr_view.buf;
    if (int64_view(indices, &w->indices_view, "indices") < 0)
        goto fail;
    w->indices = w->indices_view.buf;

    /* a CSR the walk can index without bounds checks */
    w->n = w->indptr_view.shape[0] - 1;
    if (w->n < 0 || w->indptr[0] != 0 ||
        w->indptr[w->n] != w->indices_view.shape[0]) {
        PyErr_SetString(PyExc_ValueError, "indptr does not frame indices");
        goto fail;
    }
    for (int64_t u = 0; u < w->n; u++) {
        int64_t deg = w->indptr[u + 1] - w->indptr[u];
        if (deg < 0) {
            PyErr_SetString(PyExc_ValueError, "indptr must not decrease");
            goto fail;
        }
        if (deg > w->max_degree)
            w->max_degree = deg;
    }
    for (Py_ssize_t i = 0; i < w->indices_view.shape[0]; i++) {
        if (w->indices[i] < 0 || w->indices[i] >= w->n) {
            PyErr_SetString(PyExc_ValueError, "indices out of range");
            goto fail;
        }
    }

    probs = PySequence_Fast(pm_prob, "pm_prob must be a sequence");
    if (probs == NULL)
        goto fail;
    if (PySequence_Fast_GET_SIZE(probs) != r + 1) {
        Py_DECREF(probs);
        PyErr_SetString(PyExc_ValueError, "pm_prob needs r + 1 entries");
        goto fail;
    }
    w->pm_prob = malloc((size_t)(r + 1) * sizeof(double));
    if (w->pm_prob == NULL) {
        Py_DECREF(probs);
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t d = 0; d <= r; d++) {
        w->pm_prob[d] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(probs, d));
        if (w->pm_prob[d] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(probs);
            goto fail;
        }
    }
    Py_DECREF(probs);

    /* Steps per walk: at most the cap; under loop prevention also at most
       one forward into and one backtrack out of each node and frame. */
    if (w->cap < 0 && !loop_prevention) {
        PyErr_SetString(PyExc_ValueError,
                        "a walk without loop prevention needs a cap");
        goto fail;
    }
    steps = 2 * w->n + r + 1;
    if (w->cap >= 0 && (!loop_prevention || w->cap < steps))
        steps = w->cap;
    w->stamp = calloc((size_t)w->n + 1, sizeof(uint32_t));
    w->path = alloc64(r + 1);
    w->next = alloc64(r + 1);
    w->end = alloc64(r + 1);
    w->order = alloc64((r + 1) * w->max_degree);
    w->seg = alloc64(r + 1);
    w->fwd = alloc64(r + 1 + steps);
    w->bt = alloc64(r + 1 + steps);
    if (w->stamp == NULL || w->path == NULL || w->next == NULL ||
        w->end == NULL || w->order == NULL || w->seg == NULL ||
        w->fwd == NULL || w->bt == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    return (PyObject *)w;

fail:
    Py_DECREF(w);
    return NULL;
}

static PyObject *
int64_list(const int64_t *a, int64_t n)
{
    PyObject *list = PyList_New((Py_ssize_t)n), *item;

    if (list == NULL)
        return NULL;
    for (int64_t i = 0; i < n; i++) {
        item = PyLong_FromLongLong(a[i]);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

PyDoc_STRVAR(walk_doc,
"walk(blocked, seg, bitgen_capsule)\n"
"--\n\n"
"One CSQ launched along ``seg`` (source -> edge node, at most r + 1\n"
"nodes), drawing from the\n"
"bit generator in ``bitgen_capsule`` (``Generator.bit_generator.capsule``).\n"
"``blocked`` holds one byte per node, non-zero where admission fails its\n"
"overlap checks.  Returns ``(contact, path, forward, backtrack, seen,\n"
"hops, exhausted)``: the admitted node and its route (both None when the\n"
"walk failed), the forward and backtrack transmitters as lists, the count\n"
"of distinct nodes that saw the query, the depth of the last forward hop\n"
"and whether the walk backtracked past its origin.");

static PyObject *
Walker_walk(Walker *w, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer blocked;
    PyObject *seq = NULL, *route = NULL, *fwd = NULL, *bt = NULL;
    PyObject *result = NULL;
    bitgen_t *bg;
    int64_t nseg;
    walk_result out;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "walk() takes blocked, seg and bitgen_capsule");
        return NULL;
    }
    bg = PyCapsule_GetPointer(args[2], "BitGenerator");
    if (bg == NULL)
        return NULL;
    if (PyObject_GetBuffer(args[0], &blocked, PyBUF_SIMPLE) < 0)
        return NULL;
    if (blocked.len != w->n) {
        PyErr_Format(PyExc_ValueError, "blocked has %zd bytes for %lld nodes",
                     blocked.len, (long long)w->n);
        goto done;
    }
    seq = PySequence_Fast(args[1], "seg must be a sequence");
    if (seq == NULL)
        goto done;
    nseg = PySequence_Fast_GET_SIZE(seq);
    if (nseg > w->r + 1) {
        PyErr_Format(PyExc_ValueError, "seg has %lld nodes, more than r + 1",
                     (long long)nseg);
        goto done;
    }
    /* checked before the walk draws anything */
    for (int64_t i = 0; i < nseg; i++) {
        long long v = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred())
            goto done;
        if (v < 0 || v >= w->n) {
            PyErr_Format(PyExc_IndexError, "seg node %lld out of range", v);
            goto done;
        }
        w->seg[i] = v;
    }
    csq_walk(w, blocked.buf, w->seg, nseg, bg, &out);
    fwd = int64_list(w->fwd, out.nfwd);
    bt = int64_list(w->bt, out.nbt);
    if (fwd == NULL || bt == NULL)
        goto done;
    if (out.contact >= 0) {
        route = int64_list(w->path, out.depth);
        if (route == NULL)
            goto done;
        result = Py_BuildValue("(LOOOLLO)", (long long)out.contact, route,
                               fwd, bt, (long long)out.seen,
                               (long long)out.hops,
                               out.exhausted ? Py_True : Py_False);
    } else {
        result = Py_BuildValue("(OOOOLLO)", Py_None, Py_None, fwd, bt,
                               (long long)out.seen, (long long)out.hops,
                               out.exhausted ? Py_True : Py_False);
    }

done:
    Py_XDECREF(route);
    Py_XDECREF(fwd);
    Py_XDECREF(bt);
    Py_XDECREF(seq);
    PyBuffer_Release(&blocked);
    return result;
}

static PyMethodDef Walker_methods[] = {
    {"walk", (PyCFunction)(void (*)(void))Walker_walk, METH_FASTCALL,
     walk_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(Walker_doc,
"Walker(indptr, indices, r, cap, loop_prevention, em, pm_prob)\n"
"--\n\n"
"The CSQ walk bound to one CSR adjacency and one set of walk parameters:\n"
"the depth bound ``r``, the step ``cap`` (None: none, which needs loop\n"
"prevention), loop prevention, the Edge Method flag and the PM admission\n"
"probability at depths 0..r.  Its scratch is sized here for any walk.");

static PyTypeObject WalkerType = {
    .ob_base = PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core._walk.Walker",
    .tp_basicsize = sizeof(Walker),
    .tp_dealloc = (destructor)Walker_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = Walker_doc,
    .tp_methods = Walker_methods,
    .tp_new = Walker_new,
};

static struct PyModuleDef walk_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_walk",
    .m_doc = "The CSQ depth-first random walk, compiled.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__walk(void)
{
    PyObject *m;

    if (PyType_Ready(&WalkerType) < 0)
        return NULL;
    m = PyModule_Create(&walk_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&WalkerType);
    if (PyModule_AddObject(m, "Walker", (PyObject *)&WalkerType) < 0) {
        Py_DECREF(&WalkerType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
