/* Compiled kernels: the exact behaviour of _pure.py on C arrays.
 *
 * _pure.py is the spec.  The constructor is written once, in _pure:
 * ShapeOps_init builds a _pure.ShapeOps, which checks the shape and works out
 * its geometry, and copies that geometry into C arrays.  So are both
 * per-object loops (scan_pairs, and _roundtrip_each of scan_fillings),
 * scan_fillings with its argument checks, and the properties n_factorial and
 * hook_prod: this type holds those _pure attributes, put in its dict by
 * PyInit__speedups, and keeps neither number.  scan_fillings refuses n! past
 * a long long on both twins and leaves the walk to _walk_fillings, which is
 * written here and gets the n!/n leaves under each root child from it.
 * Every static function here named after a _pure method (_path_standard,
 * _slide, _build_path, _hook_index, _rotate_hook, _checked_slide,
 * _checked_rotate, _check_exhausted, _straighten_inplace,
 * _unstraighten_inplace) is that method line for line, and the walks of
 * count_standard and _walk_fillings are its nested visit functions.
 * The parity tests compare the two twins exhaustively.
 *
 * Where they differ: _pure keeps, in a memo keyed by the hook path, the
 * path and the _hook_index verdict of a slide along it (_checked_path
 * there).  Here _build_path writes the path into a buffer, and each checked
 * slide or rotation works the verdict out again.  And with check off,
 * _straighten_inplace slides cell by cell and _unstraighten_inplace takes
 * each step with _checked_rotate, where _pure's take row runs.
 *
 * Positions are 0-based flat row-major indices.  Hooks are contiguous flat
 * runs, so the v-th hook cell of position p is p + v - 1, and a move along
 * a hook path is named by (start, v) alone.
 *
 * Plain C99 on the CPython API; build it with `python setup.py build_ext`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <limits.h>
#include <string.h>

static PyObject *InternalCheckError; /* immaculate.errors.InternalCheckError */

typedef struct {
    PyObject_HEAD
    PyObject *parts;       /* tuple of ints */
    PyObject *hooklen_obj; /* hooklen as a tuple of ints, the attribute `hooklen` */
    PyObject *order_obj;   /* order as a tuple of ints, the attribute `order` */
    int size;
    int *geom;             /* one block holding every array below */
    int *row_start, *rowof, *colof, *right, *below, *order, *hooklen;
} ShapeOps;

/* -- argument helpers ------------------------------------------------------ */

/* Bind vectorcall arguments to out[0..nmax) by position, then by keyword.
 * Slots left unset keep the default the caller stored in out. */
static int
bind_args(const char *fname, const char *const *names, int nreq, int nmax,
          PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames, PyObject **out)
{
    PyObject *given[4] = {NULL, NULL, NULL, NULL};
    if (nargs > nmax) {
        PyErr_Format(PyExc_TypeError, "%s() takes at most %d arguments (%zd given)",
                     fname, nmax, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < nargs; i++)
        given[i] = args[i];
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    for (Py_ssize_t k = 0; k < nkw; k++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, k);
        int i = 0;
        while (i < nmax && PyUnicode_CompareWithASCIIString(key, names[i]) != 0)
            i++;
        if (i == nmax) {
            PyErr_Format(PyExc_TypeError, "%s() got an unexpected keyword argument '%U'",
                         fname, key);
            return -1;
        }
        if (given[i] != NULL) {
            PyErr_Format(PyExc_TypeError, "%s() got multiple values for argument '%s'",
                         fname, names[i]);
            return -1;
        }
        given[i] = args[nargs + k];
    }
    for (int i = 0; i < nmax; i++) {
        if (given[i] != NULL)
            out[i] = given[i];
        else if (i < nreq) {
            PyErr_Format(PyExc_TypeError, "%s() missing required argument '%s'",
                         fname, names[i]);
            return -1;
        }
    }
    return 0;
}

/* Copy a sized sequence of n Python ints into out; ValueError on a length
 * mismatch, as the pure twin raises. */
static int
read_ints(PyObject *seq, int *out, int n)
{
    Py_ssize_t len = PyObject_Length(seq);
    if (len < 0)
        return -1;
    if (len != n) {
        PyErr_Format(PyExc_ValueError, "need %d entries, got %zd", n, len);
        return -1;
    }
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    if (fast == NULL)
        return -1;
    /* a sequence whose length changed since len() is read to its new size */
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        PyErr_Format(PyExc_ValueError, "need %d entries, got %zd", n,
                     PySequence_Fast_GET_SIZE(fast));
        Py_DECREF(fast);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    int i, overflow = 0;
    for (i = 0; i < n; i++) {
        long v = PyLong_AsLongAndOverflow(items[i], &overflow);
        if (overflow || v < INT_MIN || v > INT_MAX || (v == -1 && PyErr_Occurred()))
            break;
        out[i] = (int)v;
    }
    Py_DECREF(fast);
    if (i == n)
        return 0;
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_OverflowError, "entry does not fit a C int");
    return -1;
}

static PyObject *
int_list(const int *a, int n)
{
    PyObject *list = PyList_New(n);
    if (list == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(a[i]);
        if (v == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, v);
    }
    return list;
}

/* Buffers come from PyMem, so tracemalloc sees them like any object. */
static int *
alloc_ints(size_t count)
{
    int *buf = PyMem_Malloc(count * sizeof(int));
    if (buf == NULL)
        PyErr_NoMemory();
    return buf;
}

/* A shape whose __init__ never ran has no arrays; refuse it rather than
 * read them. */
static int
ready(ShapeOps *self)
{
    if (self->geom != NULL)
        return 0;
    PyErr_SetString(PyExc_AttributeError, "ShapeOps has no shape: __init__ was not called");
    return -1;
}

/* -- construction ---------------------------------------------------------- */

/* _pure.ShapeOps: the one place where a shape is checked and its geometry
 * worked out; the compiled constructor copies what it needs from it */
static PyObject *pure_ops;

/* copy the n ints of spec's attribute name into out */
static int
copy_ints(PyObject *spec, const char *name, int *out, int n)
{
    PyObject *seq = PyObject_GetAttrString(spec, name);
    int rc = seq == NULL ? -1 : read_ints(seq, out, n);
    Py_XDECREF(seq);
    return rc;
}

static int
ShapeOps_init(ShapeOps *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"parts", NULL};
    static const char *const names[] = {"parts", "hooklen", "order", "size"};
    static const char *const cells[] = {"rowof", "colof", "right", "below", "order", "hooklen"};
    PyObject *arg, *obj[4] = {NULL, NULL, NULL, NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:ShapeOps", kwlist, &arg))
        return -1;
    /* a shape the spec refuses leaves the last one, as in _pure */
    PyObject *spec = PyObject_CallOneArg(pure_ops, arg);
    if (spec == NULL)
        return -1;
    /* a second __init__ replaces the shape; one that fails past here leaves none */
    PyMem_Free(self->geom);
    self->geom = NULL;
    for (int i = 0; i < 4; i++)
        if ((obj[i] = PyObject_GetAttrString(spec, names[i])) == NULL)
            goto fail;
    long n = PyLong_AsLong(obj[3]); /* the spec refuses a size past a C int */
    Py_ssize_t k = PyObject_Length(obj[0]);
    if (n < 0 || k < 0)
        goto fail;

    /* row_start has k + 1 ints, the six per-cell arrays n each */
    int *cursor = self->geom = alloc_ints((size_t)(k + 1) + 6 * (size_t)n);
    if (cursor == NULL)
        goto fail;
    self->row_start = cursor; cursor += k + 1;
    self->rowof = cursor;     cursor += n;
    self->colof = cursor;     cursor += n;
    self->right = cursor;     cursor += n;
    self->below = cursor;     cursor += n;
    self->order = cursor;     cursor += n;
    self->hooklen = cursor;
    int rc = copy_ints(spec, "row_start", self->row_start, (int)k + 1);
    for (int i = 0; rc == 0 && i < 6; i++) /* the per-cell arrays, rowof first */
        rc = copy_ints(spec, cells[i], self->rowof + i * n, (int)n);
    if (rc < 0)
        goto fail;

    Py_XSETREF(self->parts, obj[0]);
    Py_XSETREF(self->hooklen_obj, obj[1]);
    Py_XSETREF(self->order_obj, obj[2]);
    Py_DECREF(obj[3]);
    self->size = (int)n;
    Py_DECREF(spec);
    return 0;

fail:
    PyMem_Free(self->geom);
    self->geom = NULL;
    for (int i = 0; i < 4; i++)
        Py_XDECREF(obj[i]);
    Py_DECREF(spec);
    return -1;
}

static void
ShapeOps_dealloc(ShapeOps *self)
{
    PyMem_Free(self->geom);
    Py_XDECREF(self->parts);
    Py_XDECREF(self->hooklen_obj);
    Py_XDECREF(self->order_obj);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* -- predicates ------------------------------------------------------------ */

/* Stability on the pairs of the cells cells[0..count) with their right and
 * lower neighbours: rows weakly increase, column 1 strictly.  On every cell,
 * that is the stability of the whole filling.  On the cells of a hook path,
 * it is what a step along the path can break in the traversal prefix that
 * holds the path: a right or lower neighbour comes before its cell in the
 * traversal, and a left or upper neighbour of a path cell is on the path
 * too, or, for the path's first cell, after it.  Every stability check of
 * either kernel twin is this function, on every cell or on a path. */
static int
_path_standard(const ShapeOps *self, const int *t, const int *cells, int count)
{
    for (int m = 0; m < count; m++) {
        int q = cells[m], e = t[q];
        int r = self->right[q], b = self->below[q];
        if ((r >= 0 && e > t[r]) || (b >= 0 && e >= t[b]))
            return 0;
    }
    return 1;
}

/* -- single moves ---------------------------------------------------------- */

/* Jeu de taquin on the flat array; mutates t, writes the visited positions
 * to path and returns their number, or -1 with InternalCheckError set. */
static int
_slide(const ShapeOps *self, int *t, int pos, int *path)
{
    int plen = 1;
    path[0] = pos;
    for (;;) {
        int e = t[pos];
        int r = self->right[pos];
        if (self->colof[pos] > 0) {
            if (r < 0 || e <= t[r])
                break;
            t[pos] = t[r];
            t[r] = e;
            pos = r;
        } else {
            int b = self->below[pos];
            if ((r < 0 || e <= t[r]) && (b < 0 || e < t[b]))
                break;
            if (r >= 0 && b >= 0 && t[r] == t[b]) {
                PyErr_Format(InternalCheckError,
                             "tied neighbours while sliding at position %d", pos);
                return -1;
            }
            if (b < 0 || (r >= 0 && t[r] < t[b])) {
                t[pos] = t[r];
                t[r] = e;
                pos = r;
            } else {
                t[pos] = t[b];
                t[b] = e;
                pos = b;
            }
        }
        path[plen++] = pos;
    }
    return plen;
}

/* Positions from start to its v-th hook cell (hooks are flat runs); the
 * caller keeps start + v - 1 below n. */
static int
_build_path(const ShapeOps *self, int start, int v, int *path)
{
    int target = start + v - 1;
    int plen = 0;
    if (self->rowof[target] == self->rowof[start]) {
        for (int q = start; q <= target; q++)
            path[plen++] = q;
        return plen;
    }
    for (int r = self->rowof[start]; r <= self->rowof[target]; r++)
        path[plen++] = self->row_start[r];
    for (int q = self->row_start[self->rowof[target]] + 1; q <= target; q++)
        path[plen++] = q;
    return plen;
}

/* row-based closed form; must agree with the flat-run form end - start + 1 */
static int
_hook_index(const ShapeOps *self, int start, int end)
{
    int rs = self->rowof[start], re = self->rowof[end];
    if (rs == re)
        return self->colof[end] - self->colof[start] + 1;
    return self->row_start[re] - self->row_start[rs] + self->colof[end] + 1;
}

/* Circular right shift along the hook path from start to its v-th hook
 * cell: each path cell takes its predecessor's entry, and start the last
 * cell's.  The path ends in a flat run along the last cell's row, moved by
 * one memmove; from column 1 the column-1 cells of the rows it crosses come
 * first. */
static void
_rotate_hook(const ShapeOps *self, int *t, int start, int v)
{
    int end = start + v - 1, last = t[end];
    int r = self->rowof[end], top = self->rowof[start];
    int run = r == top ? start : self->row_start[r];
    memmove(t + run + 1, t + run, (size_t)(end - run) * sizeof(int));
    for (; r > top; r--)
        t[self->row_start[r]] = t[self->row_start[r - 1]];
    t[start] = last;
}

/* -- full transforms ------------------------------------------------------- */

/* Straighten step k with every check: returns the length of the slide
 * path, or -1 with InternalCheckError set and t and s[order[k]] put back as
 * they were.  The slide moves only its path cells, all in the hook of
 * order[k], so the shift is checked on the path cells and stability on the
 * pairs with an end on the path.  work holds 2n ints of scratch, the slide path and the hook
 * path; before gets a pre-slide copy of the hook run of order[k], which the
 * walk reads back. */
static int
_checked_slide(const ShapeOps *self, int *t, int *s, int k, int *work, int *before)
{
    int n = self->size;
    int pos = self->order[k], h = self->hooklen[pos];
    int *path = work, *hook_path = work + n;
    memcpy(before, t + pos, (size_t)h * sizeof(int));
    int plen = _slide(self, t, pos, path);
    if (plen < 0)
        goto fail;
    int v = path[plen - 1] - path[0] + 1;
    s[pos] = v;
    if (_hook_index(self, path[0], path[plen - 1]) != v) {
        PyErr_SetString(InternalCheckError, "hook index closed form disagrees with flat run");
        goto fail;
    }
    if (_build_path(self, pos, v, hook_path) != plen
            || memcmp(path, hook_path, (size_t)plen * sizeof(int)) != 0) {
        PyErr_SetString(InternalCheckError, "slide path is not the hook path of its endpoints");
        goto fail;
    }
    for (int m = 0, prev = path[plen - 1]; m < plen; prev = path[m++])
        if (t[prev] != before[path[m] - pos]) {
            PyErr_SetString(InternalCheckError, "slide result is not the circular left shift");
            goto fail;
        }
    if (!_path_standard(self, t, path, plen)) {
        PyErr_Format(InternalCheckError, "prefix standardness lost after step %d", k);
        goto fail;
    }
    return plen;
fail:
    memcpy(t + pos, before, (size_t)h * sizeof(int));
    s[pos] = 1;
    return -1;
}

/* Unstraighten step k with its checks: 0, or -1 with an error set.  It
 * moves only cells of the hook run of order[n - k]: a hook value past its
 * hook raises IndexError before anything moves.  Stability of the first
 * n + 1 - k cells before the step is the caller's to check:
 * _unstraighten_inplace checks it on the pairs of the previous step's
 * rotated path, and the filling walk has it from the slide this step
 * undoes. */
static int
_checked_rotate(const ShapeOps *self, int *t, int *j, int k)
{
    int n = self->size;
    int pos = self->order[n - k];
    int v = j[pos];
    j[pos] = 1;
    if (v <= 1)
        return 0;
    if (v > self->hooklen[pos]) {
        PyErr_Format(PyExc_IndexError, "hook value %d out of range at position %d", v, pos);
        return -1;
    }
    _rotate_hook(self, t, pos, v);
    return 0;
}

/* a checked unstraighten must have consumed every hook value */
static int
_check_exhausted(const ShapeOps *self, const int *j)
{
    for (int m = 0; m < self->size; m++)
        if (j[m] != 1) {
            PyErr_SetString(InternalCheckError, "hook values not exhausted");
            return -1;
        }
    return 0;
}

/* work holds 3n ints: _checked_slide's scratch and its copy of the hook
 * run, or the slide path */
static int
_straighten_inplace(const ShapeOps *self, int *t, int *s, int check, int *work)
{
    int n = self->size;
    for (int k = 1; k < n; k++) {
        if (check) {
            if (_checked_slide(self, t, s, k, work, work + 2 * n) < 0)
                return -1;
            continue;
        }
        int pos = self->order[k];
        int plen = _slide(self, t, pos, work);
        if (plen < 0)
            return -1;
        s[pos] = work[plen - 1] - pos + 1;
    }
    return 0;
}

/* Stability of the first n + 1 - k cells before step k is checked whole
 * before step 1, and after each rotation on the pairs with an end on its
 * path, which the rotation alone moved.  The path's first cell order[n - k]
 * leaves the prefix, so its own pairs are left out.  With check off too,
 * each step is _checked_rotate, whose one check, a hook value past its hook,
 * every unstraighten makes.  path holds n ints of scratch. */
static int
_unstraighten_inplace(const ShapeOps *self, int *t, int *j, int check, int *path)
{
    int n = self->size;
    if (check && !_path_standard(self, t, self->order, n)) {
        PyErr_SetString(InternalCheckError, "prefix standardness lost before step 1");
        return -1;
    }
    for (int k = 1; k < n; k++) {
        int pos = self->order[n - k], v = j[pos];
        if (_checked_rotate(self, t, j, k) < 0)
            return -1;
        if (check && v > 1
                && !_path_standard(self, t, path + 1, _build_path(self, pos, v, path) - 1)) {
            PyErr_Format(InternalCheckError, "prefix standardness lost before step %d", k + 1);
            return -1;
        }
    }
    return check ? _check_exhausted(self, j) : 0;
}

/* -- scans ----------------------------------------------------------------- */

/* the walk of count_standard: order[0..d) are set, and *count gains one
 * per leaf below */
static int
count_visit(const ShapeOps *self, int *t, int *used, int d, long long *count)
{
    int n = self->size;
    if (d == n) {
        (*count)++;
        return 0;
    }
    if (Py_EnterRecursiveCall(" in count_standard"))
        return -1;
    int pos = self->order[d], r = self->right[pos], b = self->below[pos], rc = 0;
    int cap = r >= 0 ? t[r] : n + 1, skip = self->rowof[pos] + self->colof[pos];
    if (b >= 0 && t[b] < cap)
        cap = t[b];
    for (int v = 1; v < cap && rc == 0; v++) {
        if (used[v])
            continue;
        if (skip) {
            skip--;
            continue;
        }
        t[pos] = v;
        used[v] = 1;
        rc = count_visit(self, t, used, d + 1, count);
        used[v] = 0;
    }
    Py_LeaveRecursiveCall();
    return rc;
}

/* an InternalCheckError just raised is cleared and gives 0; any other
 * error stays raised and gives -1 */
static int
clear_check(void)
{
    if (!PyErr_ExceptionMatches(InternalCheckError))
        return -1;
    PyErr_Clear();
    return 0;
}

/* Roundtrip the fillings [lo, hi) of a failed walk node one at a time
 * through the checked public methods, filing their failures:
 * self._roundtrip_each, called by name as the _pure walk calls it, which is
 * _pure's own function unless a subclass overrides it.  The number of
 * standard ones among them, or -1 with an error set. */
static long long
roundtrip_each(ShapeOps *self, unsigned long long lo, unsigned long long hi, PyObject *failures)
{
    PyObject *count = PyObject_CallMethod((PyObject *)self, "_roundtrip_each", "KKOO", lo, hi,
                                          Py_True, failures);
    if (count == NULL)
        return -1;
    long long standard = PyLong_AsLongLong(count);
    Py_DECREF(count);
    return standard;
}

/* The state of the depth-first walk of _walk_fillings; fill_visit is the
 * nested visit of _pure's.  scan_fillings refuses n! past 2**63 - 1 before
 * the walk, so every leaf number and subtree size fits a long long. */
typedef struct {
    ShapeOps *self;
    PyObject *failures;
    unsigned long long start, stop;
    int *befores;               /* n ints per depth: the hook run before the slide */
    int *t, *s, *x, *free;      /* the walk's state, its filling, values left */
    int *work;                  /* 2n ints of _checked_slide scratch */
    long long standard;
} Walk;

/* order[0..d) are set, stable if stable, and free[d..n) holds the values
 * left, ascending; the leaves below are numbered from first, size of them
 * below each child.  The walk is at most 20 calls deep.  The slide leaves a
 * pre-slide copy of the hook run of order[d] in the depth's before. */
static int
fill_visit(Walk *w, int d, unsigned long long first, unsigned long long size, int stable)
{
    const ShapeOps *self = w->self;
    int n = self->size;
    int pos = self->order[d], r = self->right[pos], b = self->below[pos], h = self->hooklen[pos];
    int *before = w->befores + (size_t)d * n, *free = w->free, i = 0, rc = 0;
    unsigned long long lo = first;
    while (i < n - d && rc == 0 && lo < w->stop) {
        /* child i takes the i-th smallest value left; swapping it to the
         * front keeps the values after it ascending */
        if (i) {
            int v = free[d];
            free[d] = free[d + i];
            free[d + i] = v;
        }
        if (lo + size > w->start) {
            int v = w->x[pos] = w->t[pos] = free[d];
            int keep = stable && (r < 0 || v <= w->x[r]) && (b < 0 || v < w->x[b]);
            unsigned long long from = lo > w->start ? lo : w->start;
            unsigned long long to = lo + size < w->stop ? lo + size : w->stop;
            if (d > 0 && _checked_slide(self, w->t, w->s, d, w->work, before) < 0) {
                long long count = clear_check() < 0 ? -1
                                  : roundtrip_each(w->self, from, to, w->failures);
                if (count < 0)
                    rc = -1;
                else
                    w->standard += count;
            } else {
                Py_ssize_t filed = PyList_GET_SIZE(w->failures);
                if (d + 1 == n)
                    w->standard += keep;
                else
                    rc = fill_visit(w, d + 1, lo, size / (unsigned long long)(n - 1 - d), keep);
                if (rc == 0 && d > 0) {
                    /* inverse step n - d; the hook run holds every cell that
                     * the slide or the rotation can move */
                    int undo = _checked_rotate(self, w->t, w->s, n - d);
                    if (undo == 0 && d == 1)
                        undo = _check_exhausted(self, w->s);
                    if (undo < 0)
                        rc = clear_check();
                    if (rc == 0 && (undo < 0 || w->s[pos] != 1
                                    || memcmp(w->t + pos, before, (size_t)h * sizeof(int)) != 0)) {
                        rc = PyList_SetSlice(w->failures, filed, PY_SSIZE_T_MAX, NULL);
                        if (rc == 0 && roundtrip_each(w->self, from, to, w->failures) < 0)
                            rc = -1;
                        memcpy(w->t + pos, before, (size_t)h * sizeof(int));
                        w->s[pos] = 1;
                    }
                }
            }
        }
        lo += size;
        i++;
    }
    /* the swaps left free[d..d+i) rotated right by one */
    if (i > 1) {
        int v = free[d];
        memmove(free + d, free + d + 1, (size_t)(i - 1) * sizeof(int));
        free[d + i - 1] = v;
    }
    return rc;
}

/* One buffer for the filling walk: a hook run per depth, then the per-cell
 * arrays and the scratch.  NULL on error. */
static int *
walk_alloc(Walk *w, ShapeOps *self, PyObject *failures)
{
    int n = self->size;
    int *buf = alloc_ints((size_t)n * (size_t)n + 6 * (size_t)n);
    if (buf == NULL)
        return NULL;
    w->self = self;
    w->failures = failures;
    w->befores = buf;
    int *cursor = buf + (size_t)n * (size_t)n;
    w->t = cursor; cursor += n;
    w->s = cursor; cursor += n;
    w->x = cursor; cursor += n;
    w->free = cursor; cursor += n;
    w->work = cursor;
    for (int m = 0; m < n; m++) {
        w->s[m] = 1;
        w->free[m] = m + 1;
    }
    w->standard = 0;
    return buf;
}

/* -- public API (mirrors _pure) -------------------------------------------- */

static PyObject *
ShapeOps_is_standard_immaculate(ShapeOps *self, PyObject *const *args, Py_ssize_t nargs,
                                PyObject *kwnames)
{
    static const char *const names[] = {"entries"};
    PyObject *entries = NULL;
    if (bind_args("is_standard_immaculate", names, 1, 1, args, nargs, kwnames, &entries) < 0
            || ready(self) < 0)
        return NULL;
    int *t = alloc_ints((size_t)self->size);
    if (t == NULL)
        return NULL;
    PyObject *result = NULL;
    if (read_ints(entries, t, self->size) == 0)
        result = PyBool_FromLong(_path_standard(self, t, self->order, self->size));
    PyMem_Free(t);
    return result;
}

static PyObject *
ShapeOps_straighten(ShapeOps *self, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    static const char *const names[] = {"entries", "check"};
    PyObject *arg[2] = {NULL, Py_False};
    if (bind_args("straighten", names, 1, 2, args, nargs, kwnames, arg) < 0 || ready(self) < 0)
        return NULL;
    int check = PyObject_IsTrue(arg[1]);
    if (check < 0)
        return NULL;
    int n = self->size;
    int *buf = alloc_ints(5 * (size_t)n);
    if (buf == NULL)
        return NULL;
    int *t = buf, *s = buf + n;
    for (int i = 0; i < n; i++)
        s[i] = 1;
    PyObject *result = NULL;
    if (read_ints(arg[0], t, n) < 0 || _straighten_inplace(self, t, s, check, buf + 2 * n) < 0)
        goto done;
    if (check && !_path_standard(self, t, self->order, n)) {
        PyErr_SetString(InternalCheckError, "straighten result is not standard immaculate");
        goto done;
    }
    PyObject *p = int_list(t, n), *j = p ? int_list(s, n) : NULL;
    if (j != NULL)
        result = PyTuple_Pack(2, p, j);
    Py_XDECREF(p);
    Py_XDECREF(j);
done:
    PyMem_Free(buf);
    return result;
}

static PyObject *
ShapeOps_unstraighten(ShapeOps *self, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    static const char *const names[] = {"p_entries", "hook_values", "check"};
    PyObject *arg[3] = {NULL, NULL, Py_False};
    if (bind_args("unstraighten", names, 2, 3, args, nargs, kwnames, arg) < 0
            || ready(self) < 0)
        return NULL;
    int n = self->size;
    Py_ssize_t np = PyObject_Length(arg[0]), nj = np < 0 ? -1 : PyObject_Length(arg[1]);
    if (nj < 0)
        return NULL;
    if (np != n || nj != n)
        return PyErr_Format(PyExc_ValueError, "need %d entries and %d hook values", n, n);
    int check = PyObject_IsTrue(arg[2]);
    if (check < 0)
        return NULL;
    int *buf = alloc_ints(3 * (size_t)n);
    if (buf == NULL)
        return NULL;
    int *t = buf, *j = buf + n;
    PyObject *result = NULL;
    if (read_ints(arg[0], t, n) == 0 && read_ints(arg[1], j, n) == 0
            && _unstraighten_inplace(self, t, j, check, buf + 2 * n) == 0)
        result = int_list(t, n);
    PyMem_Free(buf);
    return result;
}

static PyObject *
ShapeOps_count_standard(ShapeOps *self, PyObject *Py_UNUSED(ignored))
{
    if (ready(self) < 0)
        return NULL;
    int n = self->size;
    int *buf = PyMem_Calloc(2 * (size_t)n + 1, sizeof(int)); /* t, then used */
    if (buf == NULL)
        return PyErr_NoMemory();
    long long count = 0;
    int rc = count_visit(self, buf, buf + n, 0, &count);
    PyMem_Free(buf);
    return rc < 0 ? NULL : PyLong_FromLongLong(count);
}

/* _pure's scan_fillings checks the range and n!, and calls this for the
 * walk with the n!/n leaves below each child of the root. */
static PyObject *
ShapeOps__walk_fillings(ShapeOps *self, PyObject *args)
{
    long long start, stop, size;
    PyObject *failures;
    if (ready(self) < 0 || !PyArg_ParseTuple(args, "LLLO!:_walk_fillings", &start, &stop, &size,
                                             &PyList_Type, &failures))
        return NULL;
    Walk w;
    int *buf = walk_alloc(&w, self, failures);
    if (buf == NULL)
        return NULL;
    w.start = start;
    w.stop = stop;
    int rc = fill_visit(&w, 0, 0, size, 1);
    PyMem_Free(buf);
    return rc < 0 ? NULL : PyLong_FromLongLong(w.standard);
}

/* -- type and module ------------------------------------------------------- */

static PyMethodDef ShapeOps_methods[] = {
    {"is_standard_immaculate", (PyCFunction)(void (*)(void))ShapeOps_is_standard_immaculate,
     METH_FASTCALL | METH_KEYWORDS,
     "is_standard_immaculate(entries)\n--\n\n"
     "Stability of a flat filling, on any entries: rows weakly increase, column 1 strictly."},
    {"straighten", (PyCFunction)(void (*)(void))ShapeOps_straighten,
     METH_FASTCALL | METH_KEYWORDS,
     "straighten(entries, check=False)\n--\n\n"
     "Flat filling -> (flat standard immaculate filling, flat hook values)."},
    {"unstraighten", (PyCFunction)(void (*)(void))ShapeOps_unstraighten,
     METH_FASTCALL | METH_KEYWORDS,
     "unstraighten(p_entries, hook_values, check=False)\n--\n\n"
     "(flat standard immaculate filling, flat hook values) -> flat filling."},
    {"count_standard", (PyCFunction)ShapeOps_count_standard, METH_NOARGS,
     "Count the standard immaculate fillings by a pruned walk in traversal order."},
    {"_walk_fillings", (PyCFunction)ShapeOps__walk_fillings, METH_VARARGS,
     "_walk_fillings(start, stop, size, failures)\n--\n\n"
     "The checked walk of scan_fillings over a nonempty range within n! < 2**63."},
    {NULL}
};

static PyMemberDef ShapeOps_members[] = {
    {"parts", T_OBJECT_EX, offsetof(ShapeOps, parts), READONLY, "the composition"},
    {"size", T_INT, offsetof(ShapeOps, size), READONLY, "number of cells n"},
    {"hooklen", T_OBJECT_EX, offsetof(ShapeOps, hooklen_obj), READONLY,
     "hook length of each flat cell"},
    {"order", T_OBJECT_EX, offsetof(ShapeOps, order_obj), READONLY,
     "traversal order: right-most column first, bottom-up within a column"},
    {NULL}
};

static PyTypeObject ShapeOpsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "immaculate._kernels._speedups.ShapeOps",
    .tp_basicsize = sizeof(ShapeOps),
    .tp_dealloc = (destructor)ShapeOps_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "ShapeOps(parts)\n--\n\n"
              "Precomputed flat geometry for one composition plus the hot operations.",
    .tp_methods = ShapeOps_methods,
    .tp_members = ShapeOps_members,
    .tp_init = (initproc)ShapeOps_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "immaculate._kernels._speedups",
    .m_doc = "Compiled kernels: the exact behaviour of _pure on C arrays.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    if (InternalCheckError == NULL) {
        PyObject *errors = PyImport_ImportModule("immaculate.errors");
        InternalCheckError = errors ? PyObject_GetAttrString(errors, "InternalCheckError") : NULL;
        Py_XDECREF(errors);
        /* the constructor is _pure's own, and so are the per-object loops,
         * scan_fillings, n_factorial and hook_prod: the type holds _pure's
         * functions and properties, put in its dict before PyType_Ready makes
         * it immutable.  No name here may be in ShapeOps_methods or _members
         * too: PyType_Ready keeps the dict's and drops the C one without a word */
        static const char *const held[] = {"scan_pairs", "_roundtrip_each", "scan_fillings",
                                           "n_factorial", "hook_prod"};
        PyObject *pure = InternalCheckError
                         ? PyImport_ImportModule("immaculate._kernels._pure") : NULL;
        pure_ops = pure ? PyObject_GetAttrString(pure, "ShapeOps") : NULL;
        Py_XDECREF(pure);
        PyObject *dict = pure_ops ? PyDict_New() : NULL;
        for (int i = 0; dict != NULL && i < (int)(sizeof held / sizeof held[0]); i++) {
            PyObject *attr = PyObject_GetAttrString(pure_ops, held[i]);
            if (attr == NULL || PyDict_SetItemString(dict, held[i], attr) < 0)
                Py_CLEAR(dict);
            Py_XDECREF(attr);
        }
        if (dict == NULL) {
            Py_CLEAR(InternalCheckError);
            Py_CLEAR(pure_ops);
            return NULL;
        }
        ShapeOpsType.tp_dict = dict;
    }
    if (PyType_Ready(&ShapeOpsType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&speedups_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "BACKEND", "compiled") < 0
            || PyModule_AddObjectRef(module, "ShapeOps", (PyObject *)&ShapeOpsType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
