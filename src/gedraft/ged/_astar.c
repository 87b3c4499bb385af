/* Compiled best-first search kernel for exact unit-cost GED.
 *
 * solve() takes the arguments and returns the results of _astar_py.solve,
 * the readable reference; see that module for how costs are charged, how
 * the greedy starting assignment is built and what the lower bound is, and
 * gedraft.ged.core for why the bound is admissible. It pops, expands and
 * pushes the same states in the same order, so both kernels return the same
 * (cost, assignment, expansions, optimal), also when the budget runs out.
 * The reference computes the bound of each child from its definition; this
 * kernel updates it from the parent's terms (see the comments in search()).
 *
 * Search states live in an arena: f, g and depth per state, and the partial
 * assignment packed as n1 bytes (the value n2 means deleted). The frontier
 * is a binary min-heap of state indices ordered by f ascending, g
 * descending, then the assignment lexicographically with a shorter prefix
 * first: the order heapq gives the reference kernel's (f, -g, assignment)
 * tuples. Assignments are unique, so the order is total and the pop
 * sequence does not depend on how the heap is built.
 *
 * Before the search, solve() orients the pair and renumbers one graph, as
 * _astar_py.solve does: it searches from the graph with the smaller
 * (node count, edge count), g1 on a tie, with that graph's nodes in
 * connectivity-first order, and maps the best assignment back to the
 * caller's g1 ids. search() itself only sees the renumbered "g1".
 *
 * edit_count() recounts the edits an assignment implies, as
 * gedraft.ged.core._edit_count does: ged_exact checks each search's cost with
 * it, without building the edit path.
 *
 * Node sets are 64-bit masks, so each graph has at most 64 nodes, and node
 * counts are popcounts. The default x86-64 target has no POPCNT instruction,
 * so __builtin_popcountll becomes a call into libgcc. Each function that
 * counts bits is therefore marked COUNTS_BITS: on x86-64 with GCC or Clang
 * and glibc (whose ifunc resolver picks a clone when the module loads) it is
 * compiled twice, once for CPUs with POPCNT and once for the rest. Elsewhere
 * it is compiled once, with the plain builtin.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_NODES 64

typedef uint64_t mask_t;

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define COUNTS_BITS __attribute__((target_clones("popcnt", "default")))
#endif
#endif
#ifndef COUNTS_BITS
#define COUNTS_BITS
#endif

/* Inlined into each clone of its callers, so that the POPCNT clone counts
   with the instruction. */
static inline int
popcount(mask_t x)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(x);
#else
    int c = 0;
    for (; x; x &= x - 1)
        c++;
    return c;
#endif
}

typedef struct {
    int f, g, depth;
} State;

typedef struct {
    int n1, n2, na; /* node counts and alphabet size */
    int l1[MAX_NODES], l2[MAX_NODES];
    mask_t a1[MAX_NODES], a2[MAX_NODES];
    int *suffix;   /* row i: label counts of g1's nodes i..n1-1 */
    int *count2;   /* label counts of g2 */
    int *used_lab; /* label counts of the g2 nodes the popped state uses */
    int e1_inner[MAX_NODES + 1]; /* g1 edges among nodes i..n1-1 */
    int e2_total;
    /* arena: states, their assignments (stride bytes each) and the heap */
    State *states;
    unsigned char *assign;
    size_t stride;
    int *heap;
    int n_states, heap_len, cap;
} Search;

static void
release(Search *s)
{
    free(s->suffix); /* count2 and used_lab share its block */
    free(s->states);
    free(s->assign);
    free(s->heap);
}

/* Labels that g1's nodes i.. can keep on the g2 nodes the state leaves. */
static int
overlap(const Search *s, int i)
{
    const int *c1 = s->suffix + (size_t)i * s->na;
    int sum = 0;
    for (int lab = 0; lab < s->na; lab++) {
        int c2 = s->count2[lab] - s->used_lab[lab];
        sum += c1[lab] < c2 ? c1[lab] : c2;
    }
    return sum;
}

/* Lower bound of a state at depth i with r2 unused g2 nodes, label
   overlap ov, cross-edge term cross, and inner2 g2 edges among the unused
   nodes. */
static int
bound(const Search *s, int i, int r2, int ov, int cross, int inner2)
{
    int r1 = s->n1 - i;
    int inner_gap = s->e1_inner[i] - inner2;
    return (r1 > r2 ? r1 : r2) - ov + cross + abs(inner_gap);
}

/* Greedy starting assignment into best; returns its cost. Maps each node k
   in search order to the unused g2 node with the least added cost, the
   lowest on ties. Needs n1 <= n2, which orientation guarantees. */
COUNTS_BITS static int
greedy(const Search *s, unsigned char *best)
{
    mask_t used = 0;
    int g = 0, e2_used = 0;
    for (int k = 0; k < s->n1; k++) {
        mask_t image = 0; /* images of k's neighbours among 0..k-1 */
        for (int w = 0; w < k; w++)
            if ((s->a1[k] >> w) & 1)
                image |= (mask_t)1 << best[w];
        int best_v = -1, best_add = INT_MAX;
        for (int v = 0; v < s->n2; v++) {
            if ((used >> v) & 1)
                continue;
            int add = (s->l1[k] != s->l2[v])
                      + popcount(image ^ (s->a2[v] & used));
            if (add < best_add) {
                best_add = add;
                best_v = v;
            }
        }
        best[k] = (unsigned char)best_v;
        g += best_add;
        e2_used += popcount(s->a2[best_v] & used);
        used |= (mask_t)1 << best_v;
    }
    return g + (s->n2 - s->n1) + (s->e2_total - e2_used);
}

/* Does state a pop before state b? */
static int
before(const Search *s, int a, int b)
{
    const State *x = &s->states[a], *y = &s->states[b];
    if (x->f != y->f)
        return x->f < y->f;
    if (x->g != y->g)
        return x->g > y->g;
    int d = x->depth < y->depth ? x->depth : y->depth;
    int c = memcmp(s->assign + a * s->stride, s->assign + b * s->stride, d);
    return c != 0 ? c < 0 : x->depth < y->depth;
}

static int
grow(Search *s)
{
    if (s->cap > INT_MAX / 2)
        return -1;
    /* a search of two small graphs pushes a few dozen states */
    int cap = s->cap ? 2 * s->cap : 64;
    State *states = realloc(s->states, cap * sizeof *states);
    if (!states)
        return -1;
    s->states = states;
    unsigned char *assign = realloc(s->assign, cap * s->stride);
    if (!assign)
        return -1;
    s->assign = assign;
    int *heap = realloc(s->heap, cap * sizeof *heap);
    if (!heap)
        return -1;
    s->heap = heap;
    s->cap = cap;
    return 0;
}

/* Add the state with assignment cur[0..depth-1]; -1 when out of memory. */
static int
push(Search *s, int f, int g, int depth, const unsigned char *cur)
{
    if (s->n_states == s->cap && grow(s) < 0)
        return -1;
    int idx = s->n_states++;
    s->states[idx] = (State){f, g, depth};
    memcpy(s->assign + idx * s->stride, cur, depth);
    int i = s->heap_len++;
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (!before(s, idx, s->heap[parent]))
            break;
        s->heap[i] = s->heap[parent];
        i = parent;
    }
    s->heap[i] = idx;
    return 0;
}

static int
pop(Search *s)
{
    int top = s->heap[0];
    int last = s->heap[--s->heap_len];
    int n = s->heap_len, i = 0;
    for (;;) {
        int c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && before(s, s->heap[c + 1], s->heap[c]))
            c++;
        if (!before(s, s->heap[c], last))
            break;
        s->heap[i] = s->heap[c];
        i = c;
    }
    s->heap[i] = last;
    return top;
}

/* Run the search; touches no Python object. Returns -1 when out of memory. */
COUNTS_BITS static int
search(Search *s, long long budget, int *best_cost, unsigned char *best,
       long long *expansions, int *optimal)
{
    const int n1 = s->n1, n2 = s->n2, na = s->na;
    int *used_lab = s->used_lab;
    unsigned char cur[MAX_NODES];

    for (int i = n1 - 1; i >= 0; i--) {
        memcpy(s->suffix + (size_t)i * na, s->suffix + (size_t)(i + 1) * na,
               na * sizeof(int));
        s->suffix[(size_t)i * na + s->l1[i]]++;
        const mask_t later = ~(mask_t)0 << i << 1;
        s->e1_inner[i] = s->e1_inner[i + 1] + popcount(s->a1[i] & later);
    }
    for (int v = 0; v < n2; v++) {
        s->count2[s->l2[v]]++;
        s->e2_total += popcount(s->a2[v]);
    }
    s->e2_total /= 2;

    *expansions = 0;
    *optimal = 1;
    if (n1 == 0) {
        /* nothing to assign: insert all of g2 */
        *best_cost = n2 + s->e2_total;
        return 0;
    }
    *best_cost = greedy(s, best);
    if (push(s, bound(s, 0, n2, overlap(s, 0), 0, s->e2_total), 0, 0, cur) < 0)
        return -1;
    while (s->heap_len > 0) {
        int idx = pop(s);
        const State st = s->states[idx];
        const int depth = st.depth, g = st.g;
        if (st.f >= *best_cost)
            break;
        if (*expansions >= budget) {
            *optimal = 0;
            break;
        }
        ++*expansions;
        memcpy(cur, s->assign + idx * s->stride, depth);

        /* Replay the assignment. image holds the images of node depth's
           mapped g1 neighbours. */
        const mask_t nbrs = s->a1[depth] & (((mask_t)1 << depth) - 1);
        mask_t used = 0, mapped = 0, image = 0;
        int e2_used = 0;
        memset(used_lab, 0, na * sizeof(int));
        for (int w = 0; w < depth; w++) {
            int vw = cur[w];
            if (vw == n2)
                continue;
            e2_used += popcount(s->a2[vw] & used);
            used |= (mask_t)1 << vw;
            mapped |= (mask_t)1 << w;
            used_lab[s->l2[vw]]++;
            if ((nbrs >> w) & 1)
                image |= (mask_t)1 << vw;
        }
        const int n_used = popcount(used);
        const int complete = depth + 1 == n1;
        const int ov = complete ? 0 : overlap(s, depth + 1);
        const int *c1 = s->suffix + (size_t)(depth + 1) * na;

        /* The children's cross-edge term over the nodes before depth, with
           U1 = depth+1.. and U2 the parent's unused nodes: |d1(w) - d2(w)|,
           or d1(w) for a deleted w. Using v lowers d2(w) by one for each
           image of a w adjacent to v, which adds one to w's term when
           d1(w) >= d2(w) (plus) and takes one away otherwise (minus).
           cut2 counts the g2 edges from used to unused nodes. */
        const mask_t later = ~(mask_t)0 << depth << 1;
        mask_t plus = 0, minus = 0;
        int cross = 0, cut2 = 0;
        for (int w = 0; w < depth; w++) {
            const int d1 = popcount(s->a1[w] & later);
            const int vw = cur[w];
            if (vw == n2) {
                cross += d1;
                continue;
            }
            const int d2 = popcount(s->a2[vw] & ~used);
            cut2 += d2;
            cross += abs(d1 - d2);
            if (d1 >= d2)
                plus |= (mask_t)1 << vw;
            else
                minus |= (mask_t)1 << vw;
        }
        const int d1_new = popcount(s->a1[depth] & later);
        const int inner2 = s->e2_total - e2_used - cut2;

        /* branch: delete node depth, and its edges into the prefix */
        int gc = g + 1 + popcount(nbrs);
        cur[depth] = (unsigned char)n2;
        if (complete) {
            int total = gc + (n2 - n_used) + (s->e2_total - e2_used);
            if (total < *best_cost) {
                *best_cost = total;
                memcpy(best, cur, n1);
            }
        } else {
            int f = gc + bound(s, depth + 1, n2 - n_used, ov, cross + d1_new,
                               inner2);
            if (f < *best_cost && push(s, f, gc, depth + 1, cur) < 0)
                return -1;
        }

        /* branch: map node depth to each unused v. Its edges to deleted
           nodes are deleted; an edge to a mapped w, or from v to w's image,
           costs one unless the other exists too. */
        const int deleted_edges = popcount(nbrs & ~mapped);
        for (int v = 0; v < n2; v++) {
            if ((used >> v) & 1)
                continue;
            const mask_t v_nbrs = s->a2[v] & used;
            const int lab = s->l2[v];
            gc = g + (s->l1[depth] != lab) + deleted_edges
                 + popcount(image ^ v_nbrs);
            const int e2c = e2_used + popcount(v_nbrs);
            cur[depth] = (unsigned char)v;
            if (complete) {
                int total = gc + (n2 - n_used - 1) + (s->e2_total - e2c);
                if (total < *best_cost) {
                    *best_cost = total;
                    memcpy(best, cur, n1);
                }
                continue;
            }
            /* using v lowers the overlap on its label by one when the
               unused g2 nodes of that label are no more than g1's */
            const int child_ov
                = ov - (s->count2[lab] - used_lab[lab] <= c1[lab]);
            const mask_t v_out = s->a2[v] & ~used;
            const int d2_new = popcount(v_out);
            const int child_cross = cross + popcount(s->a2[v] & plus)
                                    - popcount(s->a2[v] & minus)
                                    + abs(d1_new - d2_new);
            int f = gc + bound(s, depth + 1, n2 - n_used - 1, child_ov,
                               child_cross, inner2 - d2_new);
            if (f < *best_cost && push(s, f, gc, depth + 1, cur) < 0)
                return -1;
        }
    }
    return 0;
}

typedef struct {
    int n, e; /* node and edge counts */
    int lab[MAX_NODES];
    mask_t adj[MAX_NODES];
} Graph;

static void
bad_mask(const char *name, int i, int n)
{
    PyErr_Clear();
    PyErr_Format(PyExc_ValueError,
                 "%s: neighbour mask of node %d is not a set of other nodes "
                 "in 0..%d", name, i, n - 1);
}

/* Copy one graph's labels and neighbour masks into g, which holds n, and
   check that they are those of a simple undirected graph. */
COUNTS_BITS static int
read_graph(const char *name, PyObject *labels, PyObject *masks, int na,
           Graph *g)
{
    const int n = g->n;
    int ok = 0, degrees = 0;
    PyObject *ls = PySequence_Fast(labels, "labels must be a sequence");
    PyObject *ms = ls ? PySequence_Fast(masks, "masks must be a sequence") : NULL;
    if (!ms)
        goto done;
    if (PySequence_Fast_GET_SIZE(ls) != n || PySequence_Fast_GET_SIZE(ms) != n) {
        PyErr_Format(PyExc_ValueError,
                     "%s: expected %d labels and neighbour masks", name, n);
        goto done;
    }
    for (int i = 0; i < n; i++) {
        long l = PyLong_AsLong(PySequence_Fast_GET_ITEM(ls, i));
        if (l == -1 && PyErr_Occurred())
            goto done;
        if (l < 0 || l >= na) {
            PyErr_Format(PyExc_ValueError,
                         "%s: label %ld of node %d outside 0..%d", name, l, i,
                         na - 1);
            goto done;
        }
        g->lab[i] = (int)l;
        g->adj[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(ms, i));
        if (g->adj[i] == (mask_t)-1 && PyErr_Occurred()) {
            /* negative, or a bit beyond 63 */
            if (PyErr_ExceptionMatches(PyExc_OverflowError))
                bad_mask(name, i, n);
            goto done;
        }
        /* a set of other nodes in 0..n-1 */
        if ((n < MAX_NODES && g->adj[i] >> n) || ((g->adj[i] >> i) & 1)) {
            bad_mask(name, i, n);
            goto done;
        }
        degrees += popcount(g->adj[i]);
    }
    /* every edge listed at both ends */
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            if (((g->adj[i] >> j) & 1) && !((g->adj[j] >> i) & 1)) {
                PyErr_Format(PyExc_ValueError,
                             "%s: neighbour masks are not symmetric: node %d "
                             "lists %d, but %d does not list %d",
                             name, i, j, j, i);
                goto done;
            }
    g->e = degrees / 2;
    ok = 1;
done:
    Py_XDECREF(ls);
    Py_XDECREF(ms);
    return ok ? 0 : -1;
}

/* Renumber g's nodes in connectivity-first order into lab and adj: the
   highest-degree node first, then each time the unplaced node with the most
   edges into the placed ones, ties to the higher degree, then the lower id.
   order[k] is the id in g of new node k. */
COUNTS_BITS static void
connectivity_order(const Graph *g, int *lab, mask_t *adj, int *order)
{
    const int n = g->n;
    int deg[MAX_NODES], pos[MAX_NODES];
    mask_t placed = 0;
    for (int i = 0; i < n; i++)
        deg[i] = popcount(g->adj[i]);
    for (int k = 0; k < n; k++) {
        int best = -1, best_in = -1;
        for (int i = 0; i < n; i++) {
            if ((placed >> i) & 1)
                continue;
            const int in = popcount(g->adj[i] & placed);
            if (in > best_in || (in == best_in && deg[i] > deg[best])) {
                best = i;
                best_in = in;
            }
        }
        order[k] = best;
        pos[best] = k;
        placed |= (mask_t)1 << best;
    }
    for (int k = 0; k < n; k++) {
        const mask_t nbrs = g->adj[order[k]];
        lab[k] = g->lab[order[k]];
        adj[k] = 0;
        for (int j = 0; j < n; j++)
            if ((nbrs >> j) & 1)
                adj[k] |= (mask_t)1 << pos[j];
    }
}

/* The integer obj as a long long in *out, clamped to LLONG_MIN..LLONG_MAX
   so that a range check refuses it with a ValueError rather than an
   OverflowError; -1 with an exception set if obj is not an integer. */
static int
clamped(PyObject *obj, long long *out)
{
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow)
        *out = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *
solve(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError,
                     "solve() takes 8 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *n1_obj = args[0], *labels1 = args[1], *adj1 = args[2],
             *n2_obj = args[3], *labels2 = args[4], *adj2 = args[5],
             *na_obj = args[6];
    long long n1_arg, n2_arg, na_arg, budget = PyLong_AsLongLong(args[7]);
    if ((budget == -1 && PyErr_Occurred())
        || clamped(n1_obj, &n1_arg) < 0 || clamped(n2_obj, &n2_arg) < 0
        || clamped(na_obj, &na_arg) < 0)
        return NULL;
    if (n1_arg < 0 || n2_arg < 0 || n1_arg > MAX_NODES || n2_arg > MAX_NODES) {
        PyErr_Format(PyExc_ValueError,
                     "graphs must have 0..%d nodes, got %S and %S", MAX_NODES,
                     n1_obj, n2_obj);
        return NULL;
    }
    if (na_arg < 0) {
        PyErr_Format(PyExc_ValueError, "alphabet_size must be >= 0, got %S",
                     na_obj);
        return NULL;
    }
    if (na_arg > 2 * MAX_NODES) {
        PyErr_Format(PyExc_ValueError,
                     "alphabet_size must be at most %d, got %S", 2 * MAX_NODES,
                     na_obj);
        return NULL;
    }
    const int n1 = (int)n1_arg, n2 = (int)n2_arg, na = (int)na_arg;
    Graph g[2] = {{.n = n1}, {.n = n2}};
    if (read_graph("g1", labels1, adj1, na, &g[0]) < 0
        || read_graph("g2", labels2, adj2, na, &g[1]) < 0)
        return NULL;

    /* Search from the graph with the smaller (nodes, edges), g1 on a tie:
       unit-cost GED is symmetric, as a reversed edit path costs the same. */
    const int swap = g[1].n < g[0].n || (g[1].n == g[0].n && g[1].e < g[0].e);
    const Graph *from = &g[swap], *to = &g[!swap];
    Search s = {.n1 = from->n, .n2 = to->n, .na = na,
                .stride = from->n ? from->n : 1};
    int order[MAX_NODES];
    connectivity_order(from, s.l1, s.a1, order);
    memcpy(s.l2, to->lab, sizeof s.l2);
    memcpy(s.a2, to->adj, sizeof s.a2);

    /* suffix's n1 + 1 rows, then count2 and used_lab, in one block */
    size_t row = na ? na : 1;
    s.suffix = calloc((s.n1 + 3) * row, sizeof(int));
    int rc = -1, best_cost, optimal;
    long long expansions;
    unsigned char best[MAX_NODES];
    if (s.suffix) {
        s.count2 = s.suffix + (s.n1 + 1) * row;
        s.used_lab = s.count2 + row;
        Py_BEGIN_ALLOW_THREADS
        rc = search(&s, budget, &best_cost, best, &expansions, &optimal);
        Py_END_ALLOW_THREADS
    }
    release(&s);
    if (rc < 0)
        return PyErr_NoMemory();

    /* best[k] is the image of from's node order[k]; write it in the
       caller's g1 ids, with n2 for a deleted node */
    unsigned char out[MAX_NODES];
    if (!swap) {
        for (int k = 0; k < s.n1; k++)
            out[order[k]] = best[k];
    } else {
        memset(out, n2, n1);
        for (int k = 0; k < s.n1; k++)
            if (best[k] != s.n2)
                out[best[k]] = (unsigned char)order[k];
    }
    PyObject *cost = PyLong_FromLong(best_cost);
    PyObject *count = PyLong_FromLongLong(expansions);
    PyObject *assignment = PyTuple_New(n1);
    for (int i = 0; assignment && i < n1; i++) {
        PyObject *v = PyLong_FromLong(out[i]);
        if (!v)
            Py_CLEAR(assignment);
        else
            PyTuple_SET_ITEM(assignment, i, v);
    }
    PyObject *result = cost && count && assignment
        ? PyTuple_Pack(4, cost, assignment, count,
                       optimal ? Py_True : Py_False)
        : NULL;
    Py_XDECREF(cost);
    Py_XDECREF(count);
    Py_XDECREF(assignment);
    return result;
}

/* One graph's labels and neighbour masks, read for edit_count: the labels
   as the graph's own sequence, since they are compared as Python objects. */
typedef struct {
    Py_ssize_t n;
    PyObject *labels; /* a PySequence_Fast of the n labels */
    mask_t adj[MAX_NODES];
} Counted;

static PyObject *labels_name, *masks_name; /* "labels", "masks", interned */

/* Read graph's labels and masks attributes into g; -1 with an exception
   set if they are not n <= 64 labels and n masks of 64 bits. */
static int
read_counted(const char *name, PyObject *graph, Counted *g)
{
    PyObject *labels = PyObject_GetAttr(graph, labels_name);
    g->labels = labels ? PySequence_Fast(labels, "labels must be a sequence")
                       : NULL;
    Py_XDECREF(labels);
    PyObject *masks = g->labels ? PyObject_GetAttr(graph, masks_name) : NULL;
    PyObject *ms = masks ? PySequence_Fast(masks, "masks must be a sequence")
                         : NULL;
    Py_XDECREF(masks);
    if (!ms)
        return -1;
    int ok = 0;
    g->n = PySequence_Fast_GET_SIZE(g->labels);
    if (g->n > MAX_NODES || PySequence_Fast_GET_SIZE(ms) != g->n) {
        PyErr_Format(PyExc_ValueError,
                     "%s: expected at most %d labels and as many neighbour "
                     "masks, got %zd and %zd", name, MAX_NODES, g->n,
                     PySequence_Fast_GET_SIZE(ms));
        goto done;
    }
    for (Py_ssize_t i = 0; i < g->n; i++) {
        g->adj[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(ms, i));
        if (g->adj[i] == (mask_t)-1 && PyErr_Occurred())
            goto done;
    }
    ok = 1;
done:
    Py_DECREF(ms);
    return ok ? 0 : -1;
}

/* The edges of g's masks among its own nodes, each counted at its lower
   end. */
COUNTS_BITS static int
edges_of(const Counted *g)
{
    const mask_t within = g->n < MAX_NODES ? ((mask_t)1 << g->n) - 1
                                           : ~(mask_t)0;
    int e = 0;
    for (Py_ssize_t u = 0; u < g->n; u++)
        e += popcount(g->adj[u] & within & ~(mask_t)0 << u << 1);
    return e;
}

static PyObject *
edit_count(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "edit_count() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    Counted g[2] = {{0}, {0}};
    PyObject *as = NULL, *result = NULL;
    if (read_counted("g1", args[0], &g[0]) < 0
        || read_counted("g2", args[1], &g[1]) < 0)
        goto done;
    as = PySequence_Fast(args[2], "assignment must be a sequence");
    if (!as)
        goto done;
    const Py_ssize_t n1 = g[0].n, n2 = g[1].n;
    int image[MAX_NODES];
    int bad = PySequence_Fast_GET_SIZE(as) != n1;
    for (Py_ssize_t u = 0; !bad && u < n1; u++) {
        long long v;
        if (clamped(PySequence_Fast_GET_ITEM(as, u), &v) < 0)
            goto done;
        bad = v < 0 || v > n2;
        image[u] = (int)v;
    }
    if (bad) {
        PyErr_Format(PyExc_ValueError,
                     "assignment %R is not a map of g1's %zd nodes into 0..%zd",
                     args[2], n1, n2);
        goto done;
    }

    /* g1 edges whose images are g2 edges, and nodes that keep their label */
    int kept = 0, unmatched = 0, deleted = 0;
    for (Py_ssize_t u = 0; u < n1; u++) {
        const int a = image[u];
        if (a == n2) {
            deleted++;
            continue;
        }
        for (Py_ssize_t w = u + 1; w < n1; w++)
            if ((g[0].adj[u] >> w) & 1 && image[w] != n2)
                kept += (g[1].adj[a] >> image[w]) & 1;
        int same = PyObject_RichCompareBool(
            PySequence_Fast_GET_ITEM(g[0].labels, u),
            PySequence_Fast_GET_ITEM(g[1].labels, a), Py_EQ);
        if (same < 0)
            goto done;
        unmatched += !same;
    }
    const int inserted = (int)(n2 - n1) + deleted;
    result = PyLong_FromLong(edges_of(&g[0]) + edges_of(&g[1]) - 2 * kept
                             + unmatched + deleted + inserted);
done:
    Py_XDECREF(g[0].labels);
    Py_XDECREF(g[1].labels);
    Py_XDECREF(as);
    return result;
}

static PyMethodDef methods[] = {
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL,
     "solve(n1, labels1, adj1, n2, labels2, adj2, alphabet_size, budget, /)\n"
     "--\n\n"
     "Exact unit-cost GED search; see gedraft.ged._astar_py.solve.\n"
     "Raises ValueError for a node count outside 0..64, an alphabet_size\n"
     "outside 0..128, a label outside 0..alphabet_size-1, or neighbour\n"
     "masks that are not those of a simple undirected graph."},
    {"edit_count", (PyCFunction)(void (*)(void))edit_count, METH_FASTCALL,
     "edit_count(g1, g2, assignment)\n--\n\n"
     "The edits the assignment implies; see gedraft.ged.core._edit_count.\n"
     "Reads each graph's labels and masks. Raises ValueError for an\n"
     "assignment that is not len(g1.labels) images in 0..len(g2.labels)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "gedraft.ged._astar",
    "Compiled best-first search kernel for exact unit-cost GED.",
    0,
    methods,
};

PyMODINIT_FUNC
PyInit__astar(void)
{
    labels_name = PyUnicode_InternFromString("labels");
    masks_name = PyUnicode_InternFromString("masks");
    if (!labels_name || !masks_name)
        return NULL;
    return PyModule_Create(&module);
}
