/* Compiled kernels: the exact behaviour of _pure.py on C arrays.
 *
 * _pure.py is the spec.  Every static function here named after a _pure
 * method (_prefix_standard, _slide, _build_path, _hook_index, _rotate_hook,
 * _checked_slide, _checked_rotate, _check_exhausted, _straighten_inplace,
 * _unstraighten_inplace, _lex_rank) is that method line for line, the walks
 * of count_standard and scan_fillings are its nested visit, leaf and undo
 * functions, and scan_pairs is its loop over the pairs; only the failure
 * entries exist in C alone.  The parity tests compare the two twins
 * exhaustively.
 *
 * Where they differ: _pure keeps, in a memo keyed by the hook path, the
 * _hook_index verdict and the stability pairs that a slide along the path
 * must check (_checked_path there).  Here _build_path writes the path into a
 * buffer, and _checked_slide works both out again on every slide, the
 * pairs in _path_standard.
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
#include <stdlib.h>
#include <string.h>

static PyObject *InternalCheckError; /* immaculate.errors.InternalCheckError */
static PyObject *math_factorial;     /* math.factorial */

typedef struct {
    PyObject_HEAD
    PyObject *parts;       /* tuple of ints */
    PyObject *hook_prod;   /* exact product of the hook lengths */
    PyObject *n_factorial; /* exact n! */
    PyObject *hooklen_obj; /* hooklen as a tuple of ints, the attribute `hooklen` */
    int size;
    long long prod_ll;     /* hook_prod when it fits a long long, else -1 */
    long long fact_ll;     /* n_factorial when it fits a long long, else -1 */
    int *geom;             /* one block holding every array below */
    int *row_start, *rowof, *colof, *right, *below, *order, *hooklen;
    /* stability in traversal order: the entry at row_pairs[m] may not
     * exceed its right neighbour's, and the entry at col_pairs[m] must be
     * below the one under it; the first `count` traversal cells own the
     * first prefix_rows[count] and prefix_cols[count] of them */
    int *row_pairs, *col_pairs, *prefix_rows, *prefix_cols;
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

/* Exact product of factors[0..n): a long long accumulator, spilled into a
 * Python int whenever the next factor would overflow it. */
static PyObject *
exact_product(const int *factors, int n)
{
    PyObject *prod = PyLong_FromLong(1);
    long long acc = 1;
    for (int i = 0; prod != NULL && i <= n; i++) {
        if (i < n && acc <= LLONG_MAX / factors[i]) {
            acc *= factors[i];
            continue;
        }
        if (acc > 1) {
            PyObject *a = PyLong_FromLongLong(acc);
            PyObject *next = a ? PyNumber_Multiply(prod, a) : NULL;
            Py_XDECREF(a);
            Py_SETREF(prod, next);
        }
        if (i < n)
            acc = factors[i];
    }
    return prod;
}

static int
ShapeOps_init(ShapeOps *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"parts", NULL};
    PyObject *arg, *items, *parts = NULL, *hook_prod = NULL, *n_factorial = NULL;
    PyObject *hooklen_obj = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:ShapeOps", kwlist, &arg))
        return -1;

    /* parts = tuple(int(p) for p in parts) */
    items = PySequence_Tuple(arg);
    if (items == NULL)
        return -1;
    Py_ssize_t k = PyTuple_GET_SIZE(items);
    parts = PyTuple_New(k);
    for (Py_ssize_t r = 0; parts != NULL && r < k; r++) {
        PyObject *p = PyNumber_Long(PyTuple_GET_ITEM(items, r));
        if (p == NULL)
            Py_CLEAR(parts);
        else
            PyTuple_SET_ITEM(parts, r, p);
    }
    Py_DECREF(items);
    if (parts == NULL)
        return -1;

    /* every part at least 1, then the size must fit a C int: both checked
     * before anything is allocated */
    int overflow, bad = k == 0;
    for (Py_ssize_t r = 0; !bad && r < k; r++) {
        long long p = PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(parts, r), &overflow);
        bad = overflow < 0 || (!overflow && p < 1);
    }
    if (bad)
        PyErr_Format(PyExc_ValueError, "bad composition parts: %R", parts);
    long long total = 0;
    for (Py_ssize_t r = 0; !bad && r < k; r++) {
        total += PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(parts, r), &overflow);
        if (overflow || total > INT_MAX) {
            PyErr_SetString(PyExc_OverflowError, "composition size does not fit a C int");
            bad = 1;
        }
    }
    if (bad) {
        Py_DECREF(parts);
        return -1;
    }
    int n = (int)total;

    /* a second __init__ replaces the shape; one that fails leaves none.
     * row_start has k + 1 ints, the six per-cell arrays n each, the prefix
     * pairs n each and their cuts n + 1 each; the column counts of the order
     * sort borrow prefix_rows */
    PyMem_Free(self->geom);
    int *cursor = self->geom = alloc_ints((size_t)(k + 3) + 10 * (size_t)n);
    if (cursor == NULL)
        goto fail;
    int *row_start = self->row_start = cursor; cursor += k + 1;
    int *rowof = self->rowof = cursor;         cursor += n;
    int *colof = self->colof = cursor;         cursor += n;
    int *right = self->right = cursor;         cursor += n;
    int *below = self->below = cursor;         cursor += n;
    int *order = self->order = cursor;         cursor += n;
    int *hooklen = self->hooklen = cursor;     cursor += n;
    int *row_pairs = self->row_pairs = cursor; cursor += n;
    int *col_pairs = self->col_pairs = cursor; cursor += n;
    int *prefix_rows = self->prefix_rows = cursor; cursor += n + 1;
    int *prefix_cols = self->prefix_cols = cursor;

    row_start[0] = 0;
    for (Py_ssize_t r = 0; r < k; r++)
        row_start[r + 1] = row_start[r] + (int)PyLong_AsLong(PyTuple_GET_ITEM(parts, r));
    int maxcol = 0;
    for (int r = 0, pos = 0; r < k; r++) {
        int len = row_start[r + 1] - row_start[r];
        if (len > maxcol)
            maxcol = len;
        for (int c = 0; c < len; c++, pos++) {
            rowof[pos] = r;
            colof[pos] = c;
            right[pos] = c + 1 < len ? pos + 1 : -1;
            below[pos] = c == 0 && r + 1 < k ? row_start[r + 1] : -1;
            hooklen[pos] = c == 0 ? n - pos : row_start[r + 1] - pos;
        }
    }
    /* traversal order: right-most column first, bottom-up within a column;
     * a counting sort on the column, filled from the bottom row up */
    int *slot = prefix_rows;
    memset(slot, 0, (size_t)maxcol * sizeof(int));
    for (int pos = 0; pos < n; pos++)
        slot[colof[pos]]++;
    for (int c = maxcol - 1, start = 0; c >= 0; c--) {
        int count = slot[c];
        slot[c] = start;
        start += count;
    }
    for (int pos = n - 1; pos >= 0; pos--)
        order[slot[colof[pos]]++] = pos;

    prefix_rows[0] = prefix_cols[0] = 0;
    for (int m = 0; m < n; m++) {
        int pos = order[m];
        prefix_rows[m + 1] = prefix_rows[m];
        prefix_cols[m + 1] = prefix_cols[m];
        if (right[pos] >= 0)
            row_pairs[prefix_rows[m + 1]++] = pos;
        if (below[pos] >= 0)
            col_pairs[prefix_cols[m + 1]++] = pos;
    }

    hook_prod = exact_product(hooklen, n);
    if (hook_prod == NULL)
        goto fail;
    n_factorial = PyObject_CallFunction(math_factorial, "i", n);
    if (n_factorial == NULL)
        goto fail;
    hooklen_obj = PyTuple_New(n);
    for (int pos = 0; hooklen_obj != NULL && pos < n; pos++) {
        PyObject *h = PyLong_FromLong(hooklen[pos]);
        if (h == NULL)
            Py_CLEAR(hooklen_obj);
        else
            PyTuple_SET_ITEM(hooklen_obj, pos, h);
    }
    if (hooklen_obj == NULL)
        goto fail;
    long long prod_ll = PyLong_AsLongLongAndOverflow(hook_prod, &overflow);
    int fact_overflow;
    long long fact_ll = PyLong_AsLongLongAndOverflow(n_factorial, &fact_overflow);

    Py_XSETREF(self->parts, parts);
    Py_XSETREF(self->hook_prod, hook_prod);
    Py_XSETREF(self->n_factorial, n_factorial);
    Py_XSETREF(self->hooklen_obj, hooklen_obj);
    self->size = n;
    self->prod_ll = overflow ? -1 : prod_ll;
    self->fact_ll = fact_overflow ? -1 : fact_ll;
    return 0;

fail:
    PyMem_Free(self->geom);
    self->geom = NULL;
    Py_XDECREF(parts);
    Py_XDECREF(hook_prod);
    Py_XDECREF(n_factorial);
    return -1;
}

static void
ShapeOps_dealloc(ShapeOps *self)
{
    PyMem_Free(self->geom);
    Py_XDECREF(self->parts);
    Py_XDECREF(self->hook_prod);
    Py_XDECREF(self->n_factorial);
    Py_XDECREF(self->hooklen_obj);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* -- predicates ------------------------------------------------------------ */

/* stability of the first `count` traversal cells, treating everything
 * outside that prefix as infinite: rows weakly increase, column 1 strictly */
static int
_prefix_standard(const ShapeOps *self, const int *t, int count)
{
    for (int m = 0; m < self->prefix_rows[count]; m++) {
        int a = self->row_pairs[m];
        if (t[a] > t[self->right[a]])
            return 0;
    }
    for (int m = 0; m < self->prefix_cols[count]; m++) {
        int a = self->col_pairs[m];
        if (t[a] >= t[self->below[a]])
            return 0;
    }
    return 1;
}

/* _prefix_standard(t, k + 1) after straighten step k, on the pairs with an
 * end on the step's hook path: the pairs of each path cell with its right
 * and lower neighbours, which come before it in the traversal.  A left or
 * upper neighbour of a path cell is on the path too, or, for path[0], after
 * it in the traversal.  _pure's _checked_path lists the same pairs. */
static int
_path_standard(const ShapeOps *self, const int *t, const int *path, int plen)
{
    for (int m = 0; m < plen; m++) {
        int q = path[m], e = t[q];
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
 * path, or -1 with InternalCheckError set and t put back as it was.  The
 * slide moves only its path cells, all in the hook of order[k], so the
 * shift is checked on the path cells and stability on the pairs with an end
 * on the path.  work holds 2n ints of scratch, the slide path and the hook
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
    return -1;
}

/* Unstraighten step k with its checks: 0, or -1 with an error set.  It
 * moves only cells of the hook run of order[n - k]: a hook value past its
 * hook raises IndexError before anything moves.  Stability of the first
 * n + 1 - k cells before the step is the caller's to check. */
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

static int
_unstraighten_inplace(const ShapeOps *self, int *t, int *j, int check)
{
    int n = self->size;
    for (int k = 1; k < n; k++) {
        if (check) {
            if (!_prefix_standard(self, t, n + 1 - k)) {
                PyErr_Format(InternalCheckError, "prefix standardness lost before step %d", k);
                return -1;
            }
            if (_checked_rotate(self, t, j, k) < 0)
                return -1;
            continue;
        }
        int pos = self->order[n - k];
        int v = j[pos];
        if (v > 1) {
            if (v > self->hooklen[pos]) {
                PyErr_Format(PyExc_IndexError, "hook value %d out of range at position %d",
                             v, pos);
                return -1;
            }
            _rotate_hook(self, t, pos, v);
        }
    }
    return check ? _check_exhausted(self, j) : 0;
}

/* lexicographic rank of a permutation among all permutations of its values,
 * as an exact Python int: past 20 cells it outgrows a long long */
static PyObject *
_lex_rank(const int *x, int n)
{
    PyObject *rank = PyLong_FromLong(0);
    for (int i = 0; rank != NULL && i < n; i++) {
        long smaller = 0;
        for (int q = i + 1; q < n; q++)
            smaller += x[q] < x[i];
        PyObject *radix = PyLong_FromLong(n - i), *digit = PyLong_FromLong(smaller);
        PyObject *next = radix && digit ? PyNumber_Multiply(rank, radix) : NULL;
        Py_XSETREF(next, next ? PyNumber_Add(next, digit) : NULL);
        Py_XDECREF(radix);
        Py_XDECREF(digit);
        Py_SETREF(rank, next);
    }
    return rank;
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

/* A failure is (index, stage, message); index is a Python int. */
static PyObject *x_changed, *y_changed; /* the roundtrip messages */

/* the message of the InternalCheckError just raised, which is cleared; any
 * other error stays raised and gives NULL */
static PyObject *
take_check_message(void)
{
    if (!PyErr_ExceptionMatches(InternalCheckError))
        return NULL;
#if PY_VERSION_HEX >= 0x030C0000
    PyObject *exc = PyErr_GetRaisedException();
#else
    PyObject *type, *exc, *tb;
    PyErr_Fetch(&type, &exc, &tb);
    PyErr_NormalizeException(&type, &exc, &tb);
    Py_XDECREF(type);
    Py_XDECREF(tb);
#endif
    PyObject *message = PyObject_Str(exc);
    Py_DECREF(exc);
    return message;
}

/* failures.append((index, stage, message)); steals index and message,
 * either of which is NULL after an error */
static int
add_failure(PyObject *failures, PyObject *index, const char *stage, PyObject *message)
{
    PyObject *entry = index && message ? Py_BuildValue("(OsO)", index, stage, message) : NULL;
    Py_XDECREF(index);
    Py_XDECREF(message);
    if (entry == NULL)
        return -1;
    int rc = PyList_Append(failures, entry);
    Py_DECREF(entry);
    return rc;
}

/* A subtree of more than LLONG_MAX leaves reaches past any scan range, so
 * its size is kept at 2^63: sums of a position below stop and a size then
 * stay within 64 bits. */
#define WALK_CAP ((unsigned long long)LLONG_MAX + 1)

/* The state of scan_fillings' depth-first walk; fill_visit, fill_leaf and
 * fill_undo are the nested functions of the _pure scan. */
typedef struct {
    const ShapeOps *self;
    PyObject *failures;
    int check;
    unsigned long long start, stop;
    unsigned long long *leaves; /* leaves below one node of each depth */
    int *befores;               /* n ints per depth: the hook run before the slide */
    int *t, *s, *j, *back, *work; /* work: 2n ints of slide scratch */
    int *x, *free;              /* the filling, values left */
    int per_leaf;               /* while a failed node's subtree is walked again */
    long long standard;
} Walk;

static int
fill_leaf(Walk *w, int stable, PyObject *error)
{
    const ShapeOps *self = w->self;
    int n = self->size;
    w->standard += stable;
    PyObject *message = Py_XNewRef(error);
    if (message == NULL) {
        if (!w->per_leaf)
            return 0;
        memcpy(w->back, w->t, (size_t)n * sizeof(int));
        memcpy(w->j, w->s, (size_t)n * sizeof(int));
        if (_unstraighten_inplace(self, w->back, w->j, w->check) == 0) {
            if (memcmp(w->back, w->x, (size_t)n * sizeof(int)) == 0)
                return 0;
            return add_failure(w->failures, _lex_rank(w->x, n), "roundtrip",
                               Py_NewRef(x_changed));
        }
        if ((message = take_check_message()) == NULL)
            return -1;
    }
    return add_failure(w->failures, _lex_rank(w->x, n), "check", message);
}

/* inverse step n - d at the depth-d node; before holds the hook run of
 * order[d] as it was before the slide, and the run holds every cell that
 * the slide or the rotation can move.  1 when the step gives that run back,
 * 0 when it differs or an InternalCheckError (cleared) was raised, -1 on
 * any other error */
static int
fill_undo(Walk *w, int d, const int *before)
{
    const ShapeOps *self = w->self;
    int n = self->size, pos = self->order[d], rc = 0;
    if (w->check) {
        rc = _checked_rotate(self, w->t, w->s, n - d);
        if (rc == 0 && d == 1)
            rc = _check_exhausted(self, w->s);
        if (rc == 0 && w->s[pos] != 1)
            return 0;
    } else {
        int v = w->s[pos];
        if (v > 1) {
            if (v > self->hooklen[pos]) {
                PyErr_Format(PyExc_IndexError, "hook value %d out of range at position %d",
                             v, pos);
                return -1;
            }
            _rotate_hook(self, w->t, pos, v);
        }
    }
    if (rc < 0) {
        if (!PyErr_ExceptionMatches(InternalCheckError))
            return -1;
        PyErr_Clear();
        return 0;
    }
    return memcmp(w->t + pos, before, (size_t)self->hooklen[pos] * sizeof(int)) == 0;
}

/* order[0..d) are set, stable if stable, and free[d..n) holds the values
 * left, ascending; the leaves below are numbered from first.  A compiled
 * scan refuses n! past 64 bits, so the walk is at most 21 calls deep.
 * Both slides leave a pre-slide copy of the hook run of order[d] in the
 * depth's before. */
static int
fill_visit(Walk *w, int d, unsigned long long first, PyObject *error, int stable)
{
    const ShapeOps *self = w->self;
    int n = self->size;
    if (d == n)
        return fill_leaf(w, stable, error);
    int pos = self->order[d], r = self->right[pos], b = self->below[pos], h = self->hooklen[pos];
    int *before = w->befores + (size_t)d * n, *free = w->free, i = 0, rc = 0;
    unsigned long long size = w->leaves[d], lo = first;
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
            PyObject *err = Py_XNewRef(error);
            int slid = 0;
            if (d > 0 && err == NULL) {
                if (!w->check)
                    memcpy(before, w->t + pos, (size_t)h * sizeof(int));
                int plen = w->check ? _checked_slide(self, w->t, w->s, d, w->work, before)
                                    : _slide(self, w->t, pos, w->work);
                if (plen < 0 && (err = take_check_message()) == NULL) {
                    rc = -1;
                    break;
                }
                slid = plen > 0;
                if (slid && !w->check)
                    w->s[pos] = w->work[plen - 1] - pos + 1;
            }
            Py_ssize_t filed = PyList_GET_SIZE(w->failures);
            long long tally = w->standard;
            rc = d + 1 == n ? fill_leaf(w, keep, err) : fill_visit(w, d + 1, lo, err, keep);
            Py_XDECREF(err);
            if (slid && rc == 0) {
                if (w->per_leaf) {
                    memcpy(w->t + pos, before, (size_t)h * sizeof(int));
                    w->s[pos] = 1;
                } else {
                    int hook = w->s[pos], undone = fill_undo(w, d, before);
                    if (undone < 0)
                        rc = -1;
                    else if (!undone) {
                        /* walk the subtree again from the state the slide
                         * left, with the per-filling inverse */
                        rc = PyList_SetSlice(w->failures, filed, PY_SSIZE_T_MAX, NULL);
                        w->standard = tally;
                        memcpy(w->t + pos, before, (size_t)h * sizeof(int));
                        if (rc == 0 && _slide(self, w->t, pos, w->work) < 0)
                            rc = -1;
                        w->s[pos] = hook;
                        w->per_leaf = 1;
                        if (rc == 0)
                            rc = fill_visit(w, d + 1, lo, NULL, keep);
                        w->per_leaf = 0;
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

/* Buffers of the filling walk: a hook run per depth, then the per-cell
 * arrays and the slide scratch; NULL on error. */
static int *
walk_alloc(Walk *w, const ShapeOps *self, PyObject *failures, int check)
{
    int n = self->size;
    int *buf = alloc_ints((size_t)n * (size_t)n + 8 * (size_t)n);
    if (buf == NULL)
        return NULL;
    w->leaves = PyMem_Malloc((size_t)n * sizeof(unsigned long long));
    if (w->leaves == NULL) {
        PyMem_Free(buf);
        PyErr_NoMemory();
        return NULL;
    }
    w->self = self;
    w->failures = failures;
    w->check = check;
    w->befores = buf;
    int *cursor = buf + (size_t)n * (size_t)n;
    w->t = cursor; cursor += n;
    w->s = cursor; cursor += n;
    w->j = cursor; cursor += n;
    w->back = cursor; cursor += n;
    w->x = cursor; cursor += n;
    w->free = cursor; cursor += n;
    w->work = cursor;
    for (int m = 0; m < n; m++) {
        w->s[m] = 1;
        w->free[m] = m + 1;
    }
    w->standard = 0;
    w->per_leaf = 0;
    return buf;
}

static void
walk_free(Walk *w, int *buf)
{
    PyMem_Free(buf);
    PyMem_Free(w->leaves);
}

/* lo <= a <= b <= hi on Python ints, or -1 with an error set */
static int
ordered(PyObject *lo, PyObject *a, PyObject *b, PyObject *hi)
{
    int rc = PyObject_RichCompareBool(lo, a, Py_LE);
    if (rc == 1)
        rc = PyObject_RichCompareBool(a, b, Py_LE);
    if (rc == 1)
        rc = PyObject_RichCompareBool(b, hi, Py_LE);
    return rc;
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
        result = PyBool_FromLong(_prefix_standard(self, t, self->size));
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
    PyObject *result = NULL;
    if (read_ints(arg[0], t, n) < 0)
        goto done;
    for (int i = 0; i < n; i++)
        s[i] = 1;
    if (_straighten_inplace(self, t, s, check, buf + 2 * n) < 0)
        goto done;
    if (check && !_prefix_standard(self, t, n)) {
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
    int *buf = alloc_ints(2 * (size_t)n);
    if (buf == NULL)
        return NULL;
    int *t = buf, *j = buf + n;
    PyObject *result = NULL;
    if (read_ints(arg[0], t, n) == 0 && read_ints(arg[1], j, n) == 0
            && _unstraighten_inplace(self, t, j, check) == 0)
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

static PyObject *
ShapeOps_scan_fillings(ShapeOps *self, PyObject *const *args, Py_ssize_t nargs,
                       PyObject *kwnames)
{
    static const char *const names[] = {"start", "stop", "check"};
    PyObject *arg[3] = {NULL, NULL, Py_True};
    if (bind_args("scan_fillings", names, 2, 3, args, nargs, kwnames, arg) < 0
            || ready(self) < 0)
        return NULL;
    if (self->fact_ll < 0) {
        PyErr_SetString(PyExc_OverflowError, "n! too large for compiled scan");
        return NULL;
    }
    int n = self->size;
    PyObject *start = NULL, *stop = NULL, *zero = NULL, *failures = NULL, *result = NULL;
    int *buf = NULL;
    Walk w;
    if ((start = PyNumber_Index(arg[0])) == NULL || (stop = PyNumber_Index(arg[1])) == NULL
            || (zero = PyLong_FromLong(0)) == NULL)
        goto done;
    int in_range = ordered(zero, start, stop, self->n_factorial);
    if (in_range <= 0) {
        if (in_range == 0)
            PyErr_Format(PyExc_ValueError, "bad scan range [%S, %S) for %d! fillings",
                         start, stop, n);
        goto done;
    }
    long long hi = PyLong_AsLongLong(stop);
    int check = hi == -1 && PyErr_Occurred() ? -1 : PyObject_IsTrue(arg[2]);
    if (check < 0 || (failures = PyList_New(0)) == NULL
            || (buf = walk_alloc(&w, self, failures, check)) == NULL)
        goto done;
    w.start = (unsigned long long)PyLong_AsLongLong(start); /* fits: 0 <= start <= stop */
    w.stop = (unsigned long long)hi;
    w.leaves[n - 1] = 1;
    for (int d = n - 2; d >= 0; d--) {
        unsigned long long below = w.leaves[d + 1], branch = (unsigned long long)(n - 1 - d);
        w.leaves[d] = below > WALK_CAP / branch ? WALK_CAP : below * branch;
    }
    if ((w.start < w.stop && fill_visit(&w, 0, 0, NULL, 1) < 0))
        goto done;
    result = Py_BuildValue("(LO)", w.standard, failures);
done:
    if (buf != NULL)
        walk_free(&w, buf);
    Py_XDECREF(start);
    Py_XDECREF(stop);
    Py_XDECREF(zero);
    Py_XDECREF(failures);
    return result;
}

static PyObject *
ShapeOps_scan_pairs(ShapeOps *self, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    static const char *const names[] = {"p_table", "start", "stop", "check"};
    PyObject *arg[4] = {NULL, NULL, NULL, Py_True};
    if (bind_args("scan_pairs", names, 3, 4, args, nargs, kwnames, arg) < 0 || ready(self) < 0)
        return NULL;
    if (self->prod_ll < 0) {
        PyErr_SetString(PyExc_OverflowError, "hook product too large for compiled scan");
        return NULL;
    }
    int n = self->size;
    unsigned long long H = (unsigned long long)self->prod_ll;
    PyObject *start = NULL, *stop = NULL, *zero = NULL, *rows = NULL, *size = NULL;
    PyObject *failures = NULL, *result = NULL;
    int *buf = NULL;
    Py_ssize_t nrows = PyObject_Length(arg[0]);
    if (nrows < 0 || (start = PyNumber_Index(arg[1])) == NULL
            || (stop = PyNumber_Index(arg[2])) == NULL || (zero = PyLong_FromLong(0)) == NULL
            || (rows = PyLong_FromSsize_t(nrows)) == NULL
            || (size = PyNumber_Multiply(rows, self->hook_prod)) == NULL)
        goto done;
    int in_range = ordered(zero, start, stop, size);
    if (in_range <= 0) {
        if (in_range == 0)
            PyErr_Format(PyExc_ValueError, "bad scan range [%S, %S)", start, stop);
        goto done;
    }
    long long hi = PyLong_AsLongLong(stop);
    int check = hi == -1 && PyErr_Occurred() ? -1 : PyObject_IsTrue(arg[3]);
    /* the P row, its hook values, and the copies they are roundtripped on,
     * then 3n ints of _straighten_inplace scratch */
    if (check < 0 || (failures = PyList_New(0)) == NULL
            || (buf = alloc_ints(8 * (size_t)n)) == NULL)
        goto done;
    int *p = buf, *jv = buf + n, *back = buf + 2 * n, *j = buf + 3 * n, *s = buf + 4 * n;
    unsigned long long lo = (unsigned long long)PyLong_AsLongLong(start); /* fits: 0 <= start <= stop */
    for (unsigned long long r = lo; r < (unsigned long long)hi; r++) {
        unsigned long long rem = r % H;
        /* a row is read, and its length checked, only when the loop reaches it */
        if (r == lo || rem == 0) {
            PyObject *row = PySequence_GetItem(arg[0], (Py_ssize_t)(r / H));
            int rc = row == NULL ? -1 : read_ints(row, p, n);
            Py_XDECREF(row);
            if (rc < 0)
                goto done;
        }
        for (int pos = n - 1; pos >= 0; pos--) {
            unsigned long long h = (unsigned long long)self->hooklen[pos];
            jv[pos] = (int)(rem % h) + 1;
            rem /= h;
        }
        memcpy(back, p, (size_t)n * sizeof(int));
        memcpy(j, jv, (size_t)n * sizeof(int));
        for (int m = 0; m < n; m++)
            s[m] = 1;
        int rc = _unstraighten_inplace(self, back, j, check);
        if (rc == 0)
            rc = _straighten_inplace(self, back, s, check, buf + 5 * n);
        PyObject *message;
        if (rc == 0) {
            if (memcmp(back, p, (size_t)n * sizeof(int)) == 0
                    && memcmp(s, jv, (size_t)n * sizeof(int)) == 0)
                continue;
            rc = add_failure(failures, PyLong_FromUnsignedLongLong(r), "roundtrip",
                             Py_NewRef(y_changed));
        } else if ((message = take_check_message()) != NULL)
            rc = add_failure(failures, PyLong_FromUnsignedLongLong(r), "check", message);
        if (rc < 0)
            goto done;
    }
    result = Py_NewRef(failures);
done:
    PyMem_Free(buf);
    Py_XDECREF(start);
    Py_XDECREF(stop);
    Py_XDECREF(zero);
    Py_XDECREF(rows);
    Py_XDECREF(size);
    Py_XDECREF(failures);
    return result;
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
    {"scan_fillings", (PyCFunction)(void (*)(void))ShapeOps_scan_fillings,
     METH_FASTCALL | METH_KEYWORDS,
     "scan_fillings(start, stop, check=True)\n--\n\n"
     "Roundtrip-check the fillings numbered [start, stop) in walk order.\n\n"
     "Leaf i of the walk is the filling whose entries, read in traversal order,\n"
     "form the i-th permutation.  Each straighten step runs once per tree node\n"
     "on the way down and its checked inverse once on the way back up; a node\n"
     "whose inverse fails has its subtree walked again with the full checked\n"
     "unstraighten at every leaf.\n"
     "Returns (standard_count, failures); failures holds (rank, stage, message)\n"
     "in walk order, rank being the filling's lexicographic rank, and\n"
     "standard_count tallies the standard immaculate fillings scanned.\n"
     "Raises OverflowError when n! does not fit a C long long."},
    {"scan_pairs", (PyCFunction)(void (*)(void))ShapeOps_scan_pairs,
     METH_FASTCALL | METH_KEYWORDS,
     "scan_pairs(p_table, start, stop, check=True)\n--\n\n"
     "Roundtrip-check the pairs numbered [start, stop), one at a time.\n\n"
     "Pair r is row p_table[r // hook_prod], read and length-checked only\n"
     "when the loop reaches it, with the hook values of r % hook_prod in mixed\n"
     "radix, last flat cell fastest.  Each pair is unstraightened, then\n"
     "straightened, on copies and compared with itself.  Failures hold\n"
     "(r, stage, message) in index order.  Raises OverflowError when hook_prod\n"
     "does not fit a C long long."},
    {NULL}
};

static PyMemberDef ShapeOps_members[] = {
    {"parts", T_OBJECT_EX, offsetof(ShapeOps, parts), READONLY, "the composition"},
    {"size", T_INT, offsetof(ShapeOps, size), READONLY, "number of cells n"},
    {"hook_prod", T_OBJECT_EX, offsetof(ShapeOps, hook_prod), READONLY,
     "exact product of the hook lengths"},
    {"n_factorial", T_OBJECT_EX, offsetof(ShapeOps, n_factorial), READONLY, "exact n!"},
    {"hooklen", T_OBJECT_EX, offsetof(ShapeOps, hooklen_obj), READONLY,
     "hook length of each flat cell"},
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
        PyObject *math = InternalCheckError ? PyImport_ImportModule("math") : NULL;
        math_factorial = math ? PyObject_GetAttrString(math, "factorial") : NULL;
        Py_XDECREF(math);
        if (math_factorial != NULL) {
            x_changed = PyUnicode_InternFromString(
                "straighten then unstraighten changed the filling");
            y_changed = x_changed ? PyUnicode_InternFromString(
                "unstraighten then straighten changed the pair") : NULL;
        }
        if (y_changed == NULL) {
            Py_CLEAR(InternalCheckError);
            Py_CLEAR(math_factorial);
            Py_CLEAR(x_changed);
            return NULL;
        }
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
