/* The compiled kernel: the finished rows of a block of contexts, the
   full-sentence beam search and the PSGD search. Each exported function is
   named ``tsd_`` and its ``rowkernel.Functions`` field.

   ``tsd_block`` is ``lm.NgramGenModel._python_rows`` in one call: for each
   context it folds the row key as ``rng.hash_key`` does, onto the source's
   key that Python folded once, tosses a perturbed sibling's coin the same
   way, draws the row with ``dirichlet`` and finishes it as
   ``lm._numpy_finalize`` does. ``dirichlet`` is ``rng.Stream.dirichlet`` on
   a fresh stream: its gamma variates are ``rng.Stream._gammas`` statement
   for statement, then the row is divided by its sum (``rng._normalized``).
   Draw i of the stream keyed by ``key`` is mix64(key ^ mix64(i)), and each
   variate is one boosted Marsaglia-Tsang sample. The transcendentals are
   the libm functions CPython's ``math.log``, ``math.cos``, ``math.sqrt``
   and float ``**`` call, on the same operands in the same order, and the
   file must be compiled without floating-point contraction
   (-ffp-contract=off) or fast-math, so every variate has the bytes the
   Python loop gives. A row is a pure function of its key and starts at
   draw 1, so where it is drawn changes no byte, and nothing outside this
   file sees a row's draws. Both sums of a row, the Dirichlet row's and the
   finished row's, add it up as numpy's ``add.reduce`` does, in the same
   order (``add_reduce``), and every other step of the finish is one IEEE
   operation per entry, as numpy's elementwise loops are.

   ``tsd_beam_search`` is ``decode._python_search``: the whole loop of
   ``decode._beam_core``, each step by ``beam_step``, which is
   ``decode._beam_step``: the same finishes and the same next beam, in the
   same order, with the same scores and counts. A candidate's score is one
   IEEE add, ``lp + row[tok]``, as in Python. Of the finishes it keeps only
   the first-ranked (``finish``), as the PSGD search keeps its best span.

   ``tsd_psgd_search`` is ``decode._python_psgd`` over a
   ``decode._SpanScorer``: the whole PSGD loop (the spans, the counts, the
   best so far and the stopping rule), each round by ``psgd_round``, which
   is ``decode._psgd_round``: each item's whole-sequence total, added in
   the scorer's order, its normalised score, the round's first-ranked item
   and the top children. The terms no span changes, the scorer's head and
   tail terms, it reads itself at the start of each call (``read_fixed``),
   from the same index and by the same miss route as a round's rows, so
   Python gives it only the task's ids and the shape of its scoring. The
   length term of ``prob_over_length`` is libm's ``log``, which CPython's
   ``math.log`` calls for an int. Both searches keep their top k with one
   helper, ``top_children``, and break a tie on score as ``scoring.rank``
   does, by the tokens themselves (``precedes``).

   Both searches read each row from the source's memo index, an
   open-addressing table of context ids and row addresses (``lm._Index``,
   ``struct tsd_rows``). The rows a step or round misses of an n-gram
   model they draw, log and index themselves (``draw_wanted``): each row
   into the model's chunk with the code of ``tsd_block`` (``finished_row``),
   then its log with numpy's own float64 log loop, which ``np.log`` runs
   (``log_rows``), then its entry in the index, and the step goes on. So a
   search returns to Python only when the chunk, the index or its room for
   tokens is full, or when it cannot draw the rows itself (a
   table or uniform model, or no checked row block or log loop): then it
   hands back each missing context once, Python draws the rows through
   ``lm.SequenceModel._draw`` and queues them, and the next call enters
   them into the index. A warm decode is one call, and a cold one with room
   is one call too. The file holds no log of its own for a memo row: the
   loop is numpy's, found in ``np.log``'s table by ``rowkernel.log_loop``,
   which keeps it only if it writes ``np.log``'s bytes, and it runs
   without the GIL.

   ``rowkernel.load`` checks each exported function against its Python
   twin before any is used; the summation order of numpy is reproduced,
   and checked there, not assumed. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

void tsd_block(uint64_t h_row, uint64_t h_alt, uint64_t h_coin, double rate,
               const int64_t *contexts, int64_t n_rows, int64_t vocab,
               double concentration, double scale, double eps, double *rows);

static uint64_t mix64(uint64_t x)
{
    uint64_t z = x + UINT64_C(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

/* Draw ``i`` (counting from 1) of the stream keyed by ``key``, in (0, 1). */
static double uniform(uint64_t key, uint64_t i)
{
    return ((double)(mix64(key ^ mix64(i)) >> 11) + 0.5) * 0x1p-53;
}

/* Writes ``n`` gamma variates of shape ``concentration`` to ``out``, from
   the first draws of the stream keyed by ``key``. */
static void gammas(uint64_t key, int64_t n, double concentration, double *out)
{
    /* Boost for shape < 1: Gamma(a) = Gamma(a + 1) * U^(1/a). */
    int boost = concentration < 1.0;
    double shape = boost ? concentration + 1.0 : concentration;
    double power = 1.0 / concentration;
    double d = shape - 1.0 / 3.0;
    double c = 1.0 / sqrt(9.0 * d);
    double two_pi = 2.0 * 3.141592653589793; /* 2.0 * math.pi */
    uint64_t i = 0;
    for (int64_t k = 0; k < n; k++) {
        double b = boost ? uniform(key, ++i) : 0.0;
        double x, v, u;
        for (;;) {
            x = sqrt(-2.0 * log(uniform(key, i + 1))) * cos(two_pi * uniform(key, i + 2));
            v = 1.0 + c * x;
            if (v <= 0.0) {
                i += 2;
                continue;
            }
            v = v * v * v;
            u = uniform(key, i + 3);
            i += 3;
            if (u < 1.0 - 0.0331 * x * x * x * x || log(u) < 0.5 * x * x + d * (1.0 - v + log(v)))
                break;
        }
        out[k] = boost ? d * v * pow(b, power) : d * v;
    }
}

/* numpy's pairwise sum of ``n`` contiguous doubles (``pairwise_sum`` of
   its ``loops_utils.h``): a sequential loop below 8 entries; up to 128,
   eight accumulators, combined in a fixed tree, then the remainder; above
   128, the sums of two parts split at half of ``n`` rounded down to a
   multiple of 8. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* ``np.add.reduce`` of a contiguous float64 row, or of one row of a
   C-contiguous block along its last axis: the identity 0.0 plus the
   pairwise sum. */
static double add_reduce(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* Writes the Dirichlet row of ``n`` gamma variates of shape
   ``concentration`` keyed by ``key`` to ``out``, each divided by their sum,
   or ``1.0 / n`` everywhere when the sum is not positive. */
static void dirichlet(uint64_t key, int64_t n, double concentration, double *out)
{
    gammas(key, n, concentration, out);
    double total = add_reduce(out, n);
    for (int64_t k = 0; k < n; k++)
        out[k] = total <= 0.0 ? 1.0 / n : out[k] / total;
}

/* ``rng.hash_key``'s fold of a sequence part of ``n`` ids onto the key
   ``h``: its length, mixed with 0xA5A5A5A5, then each id. */
static uint64_t fold(uint64_t h, const int64_t *ids, int64_t n)
{
    h = mix64(h ^ mix64((uint64_t)n ^ UINT64_C(0xA5A5A5A5)));
    for (int64_t k = 0; k < n; k++)
        h = mix64(h ^ mix64((uint64_t)ids[k]));
    return h;
}

/* An n-gram model's row parameters for one source: the keys Python folded
   once, ``hash_key(seed, tag, source)`` for its rows, its sibling's rows
   and its coins, the sibling's rate (0 for a model with no sibling), the
   Dirichlet concentration and the scale and floor of the finish. */
struct tsd_source {
    uint64_t h_row, h_alt, h_coin;
    double rate, concentration, scale, eps;
};

/* Writes the finished row of the ``n`` context ids ``ctx`` of the source
   ``p`` to ``row``, every one of its ``vocab`` entries. Its raw row is 0 at
   BOS (column 0) and, in the other columns, the Dirichlet row keyed by the
   context folded onto ``h_row``, or onto ``h_alt`` when ``rate`` > 0 and
   the first draw keyed by the context folded onto ``h_coin`` is below
   ``rate``. The raw row is then finished: BOS zeroed, each entry divided by
   the row's sum, times ``scale``, plus ``eps``, and BOS zeroed again. A
   Dirichlet row's sum is positive, so the finished row's sum is too. */
static void finished_row(const struct tsd_source *p, const int64_t *ctx, int64_t n, int64_t vocab, double *row)
{
    uint64_t h = p->h_row;
    if (p->rate > 0.0 && uniform(fold(p->h_coin, ctx, n), 1) < p->rate)
        h = p->h_alt;
    row[0] = 0.0;
    dirichlet(fold(h, ctx, n), vocab - 1, p->concentration, row + 1);
    double total = add_reduce(row, vocab);
    for (int64_t v = 0; v < vocab; v++)
        row[v] = row[v] / total * p->scale + p->eps;
    row[0] = 0.0;
}

/* Writes the finished rows (``finished_row``) of ``n_rows`` contexts of one
   source to the ``n_rows`` x ``vocab`` block ``rows``, every entry of it.
   ``contexts`` holds the contexts' lengths, then their ids one context
   after another. */
void tsd_block(uint64_t h_row, uint64_t h_alt, uint64_t h_coin, double rate,
               const int64_t *contexts, int64_t n_rows, int64_t vocab,
               double concentration, double scale, double eps, double *rows)
{
    const struct tsd_source p = {h_row, h_alt, h_coin, rate, concentration, scale, eps};
    const int64_t *tokens = contexts + n_rows;
    for (int64_t r = 0; r < n_rows; r++) {
        finished_row(&p, tokens, contexts[r], vocab, rows + r * vocab);
        tokens += contexts[r];
    }
}

/* numpy's inner loop of a ufunc of one input and one output
   (``PyUFuncGenericFunction`` of its ``ufuncobject.h``): ``dimensions[0]``
   entries from ``args[0]`` to ``args[1]``, ``steps`` bytes apart. */
typedef void tsd_loop(char **args, const intptr_t *dimensions, const intptr_t *steps, void *data);

/* What both searches share: the source's memo index (``lm._Index``), an
   open-addressing table of context ids and row addresses that the caller
   sizes and this file fills (before each call the caller sets the table,
   and the rows it lacks in ``queued``), the step or round the search is at,
   and the contexts whose rows the index lacks, which the search hands back.
   A row's context is the last ``n_context`` ids of BOS + the tokens it
   follows (``lm.SequenceModel._contexts``).

   A missed row takes one of two routes. When the caller set ``chunk``,
   ``source`` and ``log``, the free rows of an n-gram model's chunk, the
   source's row parameters and numpy's float64 log loop, and the chunk, the
   index and ``drawn`` have room for every wanted row, the search draws
   their finished rows into the chunk, writes their log over them, then
   enters them into the index, so no row is reachable before its log is
   written; it records their contexts in ``drawn``, in chunk order, for
   the caller to memoise when it returns, and goes on. Otherwise it returns
   the contexts alone: the caller gives the room (a new chunk, a larger
   table), or draws the rows and queues them. */
struct tsd_rows {
    int64_t vocab;          /* entries per row */
    int64_t bos;            /* the BOS id */
    int64_t n_context;
    int64_t bits;           /* the index holds 2^bits slots of 2 + n_context
                               ids: the row's address, the context's length,
                               then its ids; or 0s */
    int64_t old_bits;       /* the table ``old_index`` outgrew */
    int64_t n_queued;       /* ids in ``queued`` */
    int64_t step;           /* the beam's length, or the PSGD spans' */
    int64_t n_wanted;       /* ids in ``wanted`` */
    int64_t chunk_room;     /* rows free in ``chunk``, and ``drawn`` holds
                               as many records */
    int64_t index_room;     /* rows the index takes before it is 3/4 full */
    int64_t n_drawn;        /* ids in ``drawn`` */
    struct tsd_source source;
    int64_t *index;
    const int64_t *old_index; /* NULL, or a table whose entries move to ``index`` */
    const int64_t *queued;  /* rows to index, per block of rows one after
                               another: its row count, its first row's
                               address, each row's context length, then
                               their ids */
    int64_t *wanted;        /* per context the index lacks, each once: its
                               length, then its ids */
    double *chunk;          /* NULL, or the first free row of the model's
                               chunk, for rows drawn with ``source`` */
    int64_t *drawn;         /* per row drawn since the call began, in chunk
                               order: its context's length, then its ids */
    tsd_loop *log;          /* NULL, or numpy's float64 log loop */
    void *log_data;         /* ... and the data it is called with */
};

/* The first slot of the ``n`` context ids ``ctx``: their length, then
   each id folded in by FNV-1a's step, spread over the 2^bits slots by
   Fibonacci hashing. A probe steps from it to the next slot, cyclically,
   until it finds the ids or a free slot, or has seen every slot: at most
   3/4 of the slots should be full, and a full table must not hang the
   search. */
static uint64_t first_slot(const struct tsd_rows *r, const int64_t *ctx, int64_t n)
{
    uint64_t h = (uint64_t)n;
    for (int64_t k = 0; k < n; k++)
        h = (h ^ (uint64_t)ctx[k]) * UINT64_C(0x100000001B3);
    return (h * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - r->bits);
}

/* Enters the row at ``address`` for the ``n`` context ids ``ctx``, which
   the index lacks, unless no slot is free. */
static void enter(struct tsd_rows *r, const int64_t *ctx, int64_t n, int64_t address)
{
    uint64_t mask = (UINT64_C(1) << r->bits) - 1, slot = first_slot(r, ctx, n);
    for (uint64_t seen = 0; r->index[slot * (2 + r->n_context)]; slot = (slot + 1) & mask)
        if (seen++ == mask)
            return;
    int64_t *entry = r->index + slot * (2 + r->n_context);
    entry[0] = address;
    entry[1] = n;
    memcpy(entry + 2, ctx, n * sizeof *ctx);
}

/* The log row of the ``n`` context ids ``ctx`` in the index, or NULL when
   it holds none: the probe compares the ids, never the hash alone. */
static const double *find_row(const struct tsd_rows *r, const int64_t *ctx, int64_t n)
{
    uint64_t mask = (UINT64_C(1) << r->bits) - 1, slot = first_slot(r, ctx, n);
    for (uint64_t seen = 0; seen <= mask; seen++, slot = (slot + 1) & mask) {
        const int64_t *entry = r->index + slot * (2 + r->n_context);
        if (!entry[0])
            return NULL;
        if (entry[1] == n && !memcmp(entry + 2, ctx, n * sizeof *ctx))
            return (const double *)(intptr_t)entry[0];
    }
    return NULL;
}

/* Moves the entries of ``old_index`` into the index, then enters the
   queued rows. */
static void index_rows(struct tsd_rows *r)
{
    if (r->old_index) {
        for (int64_t i = 0; i < INT64_C(1) << r->old_bits; i++) {
            const int64_t *entry = r->old_index + i * (2 + r->n_context);
            if (entry[0])
                enter(r, entry + 2, entry[1], entry[0]);
        }
        r->old_index = NULL;
    }
    for (const int64_t *q = r->queued, *end = q + r->n_queued; q < end;) {
        const int64_t n_rows = q[0], *lengths = q + 2;
        const int64_t *ids = lengths + n_rows;
        for (int64_t k = 0; k < n_rows; k++) {
            enter(r, ids, lengths[k], q[1] + k * r->vocab * (int64_t)sizeof(double));
            ids += lengths[k];
        }
        q = ids;
    }
    r->n_queued = 0;
    r->n_drawn = 0;
}

/* The log row after the ``n`` ids ``ids``, BOS + the tokens it follows:
   the row of their last ``n_context`` ids, or of all of them. When the
   index lacks it, returns NULL and adds the context to ``wanted``, unless
   it is there already. */
static const double *row_after(struct tsd_rows *r, const int64_t *ids, int64_t n)
{
    const int64_t m = n < r->n_context ? n : r->n_context;
    const int64_t *ctx = ids + n - m;
    const double *row = find_row(r, ctx, m);
    if (row)
        return row;
    for (const int64_t *w = r->wanted, *end = w + r->n_wanted; w < end; w += 1 + w[0])
        if (w[0] == m && !memcmp(w + 1, ctx, m * sizeof *ctx))
            return NULL;
    r->wanted[r->n_wanted] = m;
    memcpy(r->wanted + r->n_wanted + 1, ctx, m * sizeof *ctx);
    r->n_wanted += 1 + m;
    return NULL;
}

/* Writes the log of the ``n_rows`` finished rows at ``rows`` over them as
   ``np.log`` does, with its own loop: one call over the block, BOS set to
   1.0 first, so the loop meets no zero (every other entry is at least the
   floor), and to -inf after, the log of its exact 0. */
static void log_rows(const struct tsd_rows *r, double *rows, int64_t n_rows)
{
    char *args[2] = {(char *)rows, (char *)rows};
    const intptr_t n = n_rows * r->vocab, steps[2] = {sizeof *rows, sizeof *rows};
    for (int64_t i = 0; i < n_rows; i++)
        rows[i * r->vocab + r->bos] = 1.0;
    r->log(args, &n, steps, r->log_data);
    for (int64_t i = 0; i < n_rows; i++)
        rows[i * r->vocab + r->bos] = -INFINITY;
}

/* Draws the finished rows of the contexts in ``wanted`` into the chunk,
   writes their log, enters them into the index and records them in
   ``drawn``, when the caller set the chunk and the log loop and the chunk
   and the index have room for them all; returns whether it did. */
static int draw_wanted(struct tsd_rows *r)
{
    const int64_t *end = r->wanted + r->n_wanted;
    int64_t n_rows = 0;
    for (const int64_t *w = r->wanted; w < end; w += 1 + w[0])
        n_rows++;
    if (!r->chunk || !r->log || n_rows > r->chunk_room || n_rows > r->index_room)
        return 0;
    double *row = r->chunk;
    for (const int64_t *w = r->wanted; w < end; w += 1 + w[0], row += r->vocab)
        finished_row(&r->source, w + 1, w[0], r->vocab, row);
    log_rows(r, r->chunk, n_rows);
    row = r->chunk;
    for (const int64_t *w = r->wanted; w < end; w += 1 + w[0], row += r->vocab)
        enter(r, w + 1, w[0], (int64_t)(intptr_t)row);
    memcpy(r->drawn + r->n_drawn, r->wanted, r->n_wanted * sizeof *r->wanted);
    r->n_drawn += r->n_wanted;
    r->chunk = row;
    r->chunk_room -= n_rows;
    r->index_room -= n_rows;
    return 1;
}

/* One decode of the full-sentence beam search and its buffers, which a
   model's ``rowkernel.CompiledSearch`` holds for all its decodes. The
   beam lives on side ``cur`` of ``lp``, ``progress``, ``bank`` and
   ``tokens``, side s at s times the side's length; a step writes the next
   beam to the other side and flips ``cur``. All the hypotheses of a beam
   hold ``r.step`` tokens, and no two the same tokens. The first-ranked
   finish so far is kept as ``struct tsd_psgd`` keeps its best span. */
struct tsd_search {
    struct tsd_rows r;
    int64_t width;          /* the beam width: hypotheses per side, at most */
    int64_t eos;            /* the EOS id */
    int64_t lo, n_content;  /* the content ids, lo .. lo + n_content - 1 */
    int64_t n_phrases;
    int64_t complete;       /* the bank of a constraint-complete hypothesis */
    int64_t max_len;        /* the length budget */
    int64_t capacity;       /* tokens a hypothesis has room for */
    int64_t cur;
    int64_t forward_passes; /* the counts of ``decode._beam_core`` */
    int64_t positions;
    int64_t emitted;
    int64_t hard;           /* EOS candidates ranked in a window or slot */
    int64_t empty_beam;     /* the stop: 1 when ``hard`` reached ``width`` */
    int64_t best_step;      /* the step of the best finish, and so its length */
    int64_t size[2];        /* hypotheses on each side */
    double best;            /* the best finish's raw score, -inf for none */
    const int64_t *phrases; /* the phrases' tokens, one phrase after another */
    const int64_t *starts;  /* phrase j is phrases[starts[j] .. starts[j + 1]) */
    double *lp;             /* raw score per hypothesis */
    int64_t *progress;      /* per hypothesis, its position in each phrase */
    int64_t *bank;          /* per hypothesis, its summed progress */
    int64_t *tokens;        /* per hypothesis, capacity ids */
    int64_t *best_tokens;   /* the best finish's tokens, capacity ids */
};

int64_t tsd_beam_search(struct tsd_search *s);

/* A candidate: an EOS completion (token -1) or a one-token child. */
struct cand {
    double score;
    int64_t parent, token, bank;
    const int64_t *progress;
};

/* The tokens of the beam on one side: each hypothesis or item holds ``n``
   ids, hypothesis b at ``tokens + b * stride``. */
struct side {
    const int64_t *tokens;
    int64_t stride, n;
};

/* Whether the ``n`` ids ``x`` come before the ``n`` ids ``y`` in
   lexicographic order. */
static int lex_less(const int64_t *x, const int64_t *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (x[i] != y[i])
            return x[i] < y[i];
    return 0;
}

/* Whether ``a`` ranks before ``b`` under ``scoring.rank``: the higher
   score, then the shorter tokens (an EOS completion keeps its parent's
   tokens, one fewer than a child's), then the lexicographically smaller:
   the parents' tokens, then the new one. */
static int precedes(const struct side *beam, const struct cand *a, const struct cand *b)
{
    if (a->score != b->score)
        return a->score > b->score;
    if ((a->token < 0) != (b->token < 0))
        return a->token < 0;
    if (a->parent != b->parent)
        return lex_less(beam->tokens + a->parent * beam->stride, beam->tokens + b->parent * beam->stride,
                        beam->n);
    return a->token < b->token;
}

/* The first index of the maximum, as ``ndarray.argmax`` picks it. */
static int64_t argmax(const double *row, int64_t n)
{
    int64_t best = 0;
    for (int64_t i = 1; i < n; i++)
        if (row[i] > row[best])
            best = i;
    return best;
}

/* Writes to ``top`` the first ``width`` one-token content children of the
   ``n_beam`` hypotheses of ``beam`` in rank order, and returns how many it
   wrote. Hypothesis b has score ``lp[b]`` and log row ``rows[b * stride]``. */
static int64_t top_children(const double *lp, const double *const *rows, int64_t stride, int64_t n_beam,
                            int64_t lo, int64_t n_content, const struct side *beam, int64_t width,
                            struct cand *top)
{
    int64_t k = 0;
    for (int64_t b = 0; b < n_beam; b++) {
        const double *row = rows[b * stride];
        for (int64_t tok = lo; tok < lo + n_content; tok++) {
            struct cand child = {lp[b] + row[tok], b, tok, 0, NULL};
            if (k == width && !precedes(beam, &child, &top[k - 1]))
                continue;
            int64_t i = k < width ? k++ : width - 1;
            for (; i > 0 && precedes(beam, &child, &top[i - 1]); i--)
                top[i] = top[i - 1];
            top[i] = child;
        }
    }
    return k;
}

/* The scratch of one call: each hypothesis's row, candidates, their rank
   order, slot flags and moved progress, bank counts and a context. */
struct scratch {
    const double **rows;
    struct cand *cands;
    int64_t *ranked, *in_slot, *moved, *counts, *ctx;
};

/* Marks hypothesis ``b`` of the step finished with the raw ``score``: it
   becomes the best if it ranks first under ``decode._pick_best``'s rule.
   The best is never the longer, and a finish marked twice in a step has
   the same tokens and score, so the second never ranks first. */
static void finish(struct tsd_search *s, int64_t b, double score)
{
    const int64_t n = s->r.step, *tokens = s->tokens + (s->cur * s->width + b) * s->capacity;
    const double norm = score / (double)(n > 1 ? n : 1);
    const double best = s->best / (double)(s->best_step > 1 ? s->best_step : 1);
    if (norm > best || (norm == best && n == s->best_step && lex_less(tokens, s->best_tokens, n))) {
        s->best = score;
        s->best_step = n;
        memcpy(s->best_tokens, tokens, n * sizeof *tokens);
    }
}

/* One step of ``decode._beam_step`` from the beam on side ``cur`` and its
   rows: marks the finishes and, unless ``last``, writes the next beam, its
   tokens too, to the other side. */
static void beam_step(struct tsd_search *s, struct scratch *w, int64_t last)
{
    const int64_t in = s->cur, out = 1 - in, n_beam = s->size[in];
    const int64_t width = s->width, vocab = s->r.vocab, n_phrases = s->n_phrases;
    const double *lp = s->lp + in * width, *const *rows = w->rows;
    const int64_t *progress = s->progress + in * width * n_phrases, *bank = s->bank + in * width;
    const struct side beam = {s->tokens + in * width * s->capacity, s->capacity, s->r.step};
    struct cand *cands = w->cands;
    int64_t *ranked = w->ranked, *in_slot = w->in_slot, *moved = w->moved;
    int64_t n = 0, next = 0;

    /* EOS candidates of the complete hypotheses; one finishes when EOS is
       its argmax and, under constraints, at the length budget. */
    for (int64_t b = 0; b < n_beam; b++) {
        if (bank[b] != s->complete)
            continue;
        struct cand eos = {lp[b] + rows[b][s->eos], b, -1, bank[b], progress + b * n_phrases};
        cands[n++] = eos;
        if (argmax(rows[b], vocab) == s->eos || (n_phrases && last))
            finish(s, b, eos.score);
    }
    if (last)
        return;

    /* The top ``width`` content expansions, kept in rank order. */
    const int64_t first_child = n;
    n += top_children(lp, rows, 1, n_beam, s->lo, s->n_content, &beam, width, cands + n);

    /* The forced child of every unfinished phrase, each child once. */
    for (int64_t b = 0; b < n_beam; b++) {
        for (int64_t j = 0; j < n_phrases; j++) {
            int64_t pos = progress[b * n_phrases + j];
            if (pos == s->starts[j + 1] - s->starts[j])
                continue;
            int64_t tok = s->phrases[s->starts[j] + pos];
            int dup = 0;
            for (int64_t i = first_child; i < n && !dup; i++)
                dup = cands[i].parent == b && cands[i].token == tok;
            if (!dup) {
                struct cand child = {lp[b] + rows[b][tok], b, tok, 0, NULL};
                cands[n++] = child;
            }
        }
    }

    /* Each child's progress and bank (decode._advance_progress). */
    for (int64_t i = first_child; i < n; i++) {
        const int64_t *from = progress + cands[i].parent * n_phrases;
        int64_t *to = moved + i * n_phrases, tok = cands[i].token, sum = 0;
        for (int64_t j = 0; j < n_phrases; j++) {
            const int64_t *phrase = s->phrases + s->starts[j];
            int64_t pos = from[j], len = s->starts[j + 1] - s->starts[j];
            to[j] = pos == len ? pos : tok == phrase[pos] ? pos + 1 : tok == phrase[0] ? 1 : 0;
            sum += to[j];
        }
        cands[i].progress = to;
        cands[i].bank = sum;
    }

    /* The one rank order of the step. */
    for (int64_t i = 0; i < n; i++) {
        int64_t j = i;
        for (; j > 0 && precedes(&beam, &cands[i], &cands[ranked[j - 1]]); j--)
            ranked[j] = ranked[j - 1];
        ranked[j] = i;
    }

    /* Slots shared evenly over the non-empty banks, remainders to higher
       banks. */
    int64_t *slots = w->counts, *seen = slots + s->complete + 1;
    int64_t *kept = seen + s->complete + 1;
    int64_t n_banks = 0;
    memset(slots, 0, 3 * (s->complete + 1) * sizeof *slots);
    for (int64_t i = 0; i < n; i++)
        n_banks += !slots[cands[i].bank]++;
    for (int64_t b = s->complete, i = 0; b >= 0; b--)
        if (slots[b]) {
            slots[b] = width / n_banks + (i < width % n_banks);
            i++;
        }

    /* EOS candidates in the global window or their bank's slots finish;
       content candidates take their bank's slots in rank order. ``ranked``
       keeps the content candidates, ``in_slot`` their flags. */
    int64_t spare = width, n_alive = 0;
    for (int64_t i = 0; i < n; i++) {
        const struct cand *c = &cands[ranked[i]];
        if (c->token < 0) {
            if (i < width || seen[c->bank] < slots[c->bank]) {
                finish(s, c->parent, c->score);
                s->hard++;
            }
        } else {
            int64_t slot = kept[c->bank]++ < slots[c->bank];
            spare -= slot;
            in_slot[n_alive] = slot;
            ranked[n_alive++] = ranked[i];
        }
        seen[c->bank]++;
    }

    /* The next beam: in-slot candidates, and the best leftovers in the
       slots no bank filled. */
    for (int64_t a = 0; a < n_alive; a++) {
        if (!in_slot[a]) {
            if (spare == 0)
                continue;
            spare--;
        }
        const struct cand *c = &cands[ranked[a]];
        int64_t *to = s->tokens + (out * width + next) * s->capacity;
        memcpy(to, beam.tokens + c->parent * beam.stride, beam.n * sizeof *to);
        to[beam.n] = c->token;
        s->lp[out * width + next] = c->score;
        s->bank[out * width + next] = c->bank;
        for (int64_t j = 0; j < n_phrases; j++)
            s->progress[(out * width + next) * n_phrases + j] = c->progress[j];
        next++;
    }
    s->size[out] = next;
}

/* Indexes the queued rows, then runs ``decode._beam_core``'s loop from the
   beam on side ``cur``, at length ``r.step``, until it stops at the length
   budget or on an empty beam (returns 0), or until a step needs what the
   caller must give first (returns 1): room for the next beam's tokens
   (``r.step`` is ``capacity``), or the rows of the contexts in ``wanted``
   that it could not draw itself (``draw_wanted``), or room for them. The
   step is then not begun; the caller grows the buffers and the room for
   rows or draws the wanted ones, and calls again to resume. Either way it
   memoises the rows recorded in ``drawn``. The best finish, the counts and
   the stop are left in ``s``. Returns -1 when memory runs out. */
int64_t tsd_beam_search(struct tsd_search *s)
{
    const int64_t width = s->width, max_len = s->max_len, cap = s->capacity;
    const int64_t max_cands = width * (2 + s->n_phrases);
    struct scratch w = {
        malloc(width * sizeof *w.rows),
        malloc(max_cands * sizeof *w.cands), malloc(max_cands * sizeof *w.ranked),
        malloc(max_cands * sizeof *w.in_slot), malloc((max_cands * s->n_phrases + 1) * sizeof *w.moved),
        malloc(3 * (s->complete + 1) * sizeof *w.counts), malloc((cap + 1) * sizeof *w.ctx),
    };
    int64_t status = 0;
    index_rows(&s->r);
    if (!w.rows || !w.cands || !w.ranked || !w.in_slot || !w.moved || !w.counts || !w.ctx) {
        status = -1;
        goto done;
    }
    w.ctx[0] = s->r.bos;
    for (;;) {
        const int64_t in = s->cur, n_beam = s->size[in], step = s->r.step;
        s->r.n_wanted = 0;
        if (step == cap && step < max_len) {
            status = 1;
            break;
        }
        /* Each hypothesis's row, after BOS + its tokens: past the context
           length, its tokens alone end in the context. */
        for (int64_t b = 0; b < n_beam; b++) {
            const int64_t *tokens = s->tokens + (in * width + b) * cap;
            if (step >= s->r.n_context) {
                w.rows[b] = row_after(&s->r, tokens, step);
            } else {
                memcpy(w.ctx + 1, tokens, step * sizeof *tokens);
                w.rows[b] = row_after(&s->r, w.ctx, step + 1);
            }
        }
        if (s->r.n_wanted) {
            if (draw_wanted(&s->r))
                continue;
            status = 1;
            break;
        }
        /* The logical forced pass over BOS + tokens that each row ends. */
        s->forward_passes += n_beam;
        s->positions += n_beam * (step + 1);
        const int64_t last = step == max_len;
        beam_step(s, &w, last);
        if (last)
            break;
        if (s->hard >= width) {
            s->empty_beam = 1;
            break;
        }
        s->cur = 1 - in;
        s->r.step++;
        s->emitted++;
    }
done:
    free(w.rows);
    free(w.cands);
    free(w.ranked);
    free(w.in_slot);
    free(w.moved);
    free(w.counts);
    free(w.ctx);
    return status;
}

/* One PSGD decode and its buffers, which a model's
   ``rowkernel.CompiledPsgd`` holds for all its decodes, with the shape of
   ``decode._SpanScorer``'s scoring (``decode._span_shape``). As in
   ``struct tsd_search``, the beam lives on side ``cur`` of ``lp``,
   ``carry`` and ``tokens``; a round that expands writes the children to
   the other side. Every item of a beam holds a span of ``r.step`` tokens,
   and no two hold the same span; its carry is its span's terms, each
   token's term in its parent's next-token row. Each item reads ``n_pieces`` rows, those after prefix +
   span + the first ``pieces[j]`` suffix tokens: its next-token row, the
   rows of the suffix terms the span changes, then its EOS row unless that
   is fixed. */
struct tsd_psgd {
    struct tsd_rows r;
    int64_t width;          /* the beam width: items per side, at most */
    int64_t eos;            /* the EOS id */
    int64_t lo, n_content;  /* the content ids, lo .. lo + n_content - 1 */
    int64_t n_prefix, n_suffix;
    int64_t n_pieces;
    int64_t n_changed;      /* suffix terms the span changes: the first
                               min(n_context, n_suffix) */
    int64_t fixed_eos;      /* the EOS term: the first head term (1), when
                               n_suffix >= n_context, or read from each
                               item's last row (0) */
    int64_t mean;           /* the score: total / length (1), or total -
                               log(length) (0) */
    int64_t eos_in_len;     /* 1 when the length counts EOS */
    int64_t patience;
    int64_t max_span;       /* the span cap */
    int64_t capacity;       /* span tokens and carry terms per item */
    int64_t cur;
    int64_t forward_passes; /* the counts of ``decode._python_psgd`` */
    int64_t positions;
    int64_t emitted;
    int64_t at_cap;         /* the stop: 1 at the span cap, 0 on patience */
    int64_t best_step;      /* the round of the best score, and so the length
                               of its span */
    int64_t size[2];        /* items on each side */
    double best;            /* the first-ranked whole-sequence score so far */
    const int64_t *prefix;
    const int64_t *suffix;
    const int64_t *pieces;
    double *terms;          /* the head terms (the fixed EOS term, then the
                               prefix terms), then the tail terms (the
                               suffix terms from n_changed on), which
                               ``read_fixed`` writes */
    int64_t *parent;        /* the children in rank order: parent index */
    int64_t *token;         /* ... and new token */
    double *lp;             /* per item, its span's summed log-probability */
    double *carry;          /* per item, capacity terms */
    int64_t *tokens;        /* per item, capacity ids */
    int64_t *best_tokens;   /* the best score's span, capacity ids */
};

int64_t tsd_psgd_search(struct tsd_psgd *s);

/* Whether a scoring round expands its items: never, only when its
   first-ranked item scores above the best so far, or always
   (``decode.EXPAND_*``). */
enum { EXPAND_NEVER, EXPAND_IF_BETTER, EXPAND_ALWAYS };

/* One round of ``decode._psgd_round`` over the items on side ``cur`` and
   their ``rows``: writes each item's normalised score to ``score`` and the
   first-ranked item to ``top``, and, when ``expand`` says so, the top
   ``width`` children to the other side, whose size it sets. Returns how
   many it wrote. */
static int64_t psgd_round(struct tsd_psgd *s, const double *const *rows, int64_t expand, double *score,
                          int64_t *top, struct cand *children)
{
    const int64_t in = s->cur, out = 1 - in, n_beam = s->size[in], cap = s->capacity, n = s->r.step;
    const int64_t width = s->width, n_pieces = s->n_pieces;
    const int64_t n_head = s->n_prefix + s->fixed_eos, n_tail = s->n_suffix - s->n_changed;
    const struct side beam = {s->tokens + in * width * cap, cap, n};
    const double *carry = s->carry + in * width * cap;
    /* ``scoring.length_term``: math.log of an int that fits a double is
       libm's log of that double. */
    int64_t length = s->n_prefix + n + s->n_suffix + s->eos_in_len;
    length = length > 1 ? length : 1;
    const double norm = s->mean ? (double)length : log((double)length);
    int64_t best = 0;
    for (int64_t b = 0; b < n_beam; b++) {
        /* The order ``_SpanScorer.total`` adds in: EOS, prefix, span,
           changed suffix terms, then the tail. -0.0 + x is x, so a fixed
           EOS term, the first head term, starts the sum unchanged. */
        const double *const *item = rows + b * n_pieces;
        double total = s->fixed_eos ? -0.0 : item[n_pieces - 1][s->eos];
        for (int64_t j = 0; j < n_head; j++)
            total += s->terms[j];
        for (int64_t j = 0; j < n; j++)
            total += carry[b * cap + j];
        for (int64_t j = 0; j < s->n_changed; j++)
            total += item[j][s->suffix[j]];
        for (int64_t j = 0; j < n_tail; j++)
            total += s->terms[n_head + j];
        score[b] = s->mean ? total / norm : total - norm;
        if (b == 0 || score[b] > score[best]
            || (score[b] == score[best] && lex_less(beam.tokens + b * cap, beam.tokens + best * cap, n)))
            best = b;
    }
    *top = best;
    int64_t k = 0;
    if (expand == EXPAND_ALWAYS || (expand == EXPAND_IF_BETTER && score[best] > s->best))
        k = top_children(s->lp + in * width, rows, n_pieces, n_beam, s->lo, s->n_content, &beam, width,
                         children);
    for (int64_t i = 0; i < k; i++) {
        const int64_t parent = children[i].parent, tok = children[i].token;
        double *to = s->carry + (out * width + i) * cap;
        s->parent[i] = parent;
        s->token[i] = tok;
        s->lp[out * width + i] = children[i].score;
        for (int64_t j = 0; j < n; j++)
            to[j] = carry[parent * cap + j];
        to[n] = rows[parent * n_pieces][tok];
    }
    s->size[out] = k;
    return k;
}

/* Writes to ``terms`` the terms of ``decode._SpanScorer`` that no span
   changes, from the rows after the first ids of ``seq``, BOS + prefix +
   suffix: under an order-k model the rows of the prefix terms, of the
   suffix terms from position k on and, when the suffix has k tokens or
   more, the EOS row never see the span. It reads their rows in the order
   the scorer batches them (prefix, tail, EOS) and writes each term to its
   place in the scorer's order. A row the index lacks goes to ``wanted``
   and its term is left for a later read; returns whether none did. */
static int read_fixed(struct tsd_psgd *s, const int64_t *seq)
{
    const int64_t at = 1 + s->n_prefix, n_head = s->n_prefix + s->fixed_eos;
    const double *row;
    s->r.n_wanted = 0;
    for (int64_t t = 0; t < s->n_prefix; t++)
        if ((row = row_after(&s->r, seq, 1 + t)))
            s->terms[s->fixed_eos + t] = row[s->prefix[t]];
    for (int64_t j = s->n_changed; j < s->n_suffix; j++)
        if ((row = row_after(&s->r, seq, at + j)))
            s->terms[n_head + j - s->n_changed] = row[s->suffix[j]];
    if (s->fixed_eos && (row = row_after(&s->r, seq, at + s->n_suffix)))
        s->terms[0] = row[s->eos];
    return !s->r.n_wanted;
}

/* Indexes the queued rows, then runs ``decode._python_psgd``'s loop from
   the items on side ``cur``, at span length ``r.step``, until the patience
   rule or the span cap stops it (returns 0), or until a round needs what
   the caller must give first (returns 1): room for the children's spans
   and carries (``r.step`` is ``capacity``), or the rows of the contexts in
   ``wanted`` that it could not draw itself (``draw_wanted``), or room for
   them. Every call first reads the fixed terms (``read_fixed``), whose
   missed rows take the same route. The round is then not begun; the
   caller grows the buffers and the room for rows or draws the wanted ones,
   and calls again to resume.
   Either way it memoises the rows recorded in ``drawn``. The best score,
   its round and its span, the counts and the stop are left in ``s``.
   Returns -1 when memory runs out. */
int64_t tsd_psgd_search(struct tsd_psgd *s)
{
    const int64_t width = s->width, cap = s->capacity, n_pieces = s->n_pieces, at = 1 + s->n_prefix;
    int64_t *seq = malloc((at + cap + s->n_suffix) * sizeof *seq);
    const double **rows = malloc(width * n_pieces * sizeof *rows);
    double *score = malloc(width * sizeof *score);
    struct cand *children = malloc(width * sizeof *children);
    int64_t status = 0;
    index_rows(&s->r);
    if (!seq || !rows || !score || !children) {
        status = -1;
        goto done;
    }
    /* BOS + prefix + span + suffix: the rows of an item follow its first
       ``at + r.step + pieces[j]`` ids; the fixed rows, with no span. */
    seq[0] = s->r.bos;
    memcpy(seq + 1, s->prefix, s->n_prefix * sizeof *seq);
    memcpy(seq + at, s->suffix, s->n_suffix * sizeof *seq);
    while (!read_fixed(s, seq)) {
        if (!draw_wanted(&s->r)) {
            status = 1;
            goto done;
        }
    }
    for (;;) {
        const int64_t in = s->cur, out = 1 - in, n_beam = s->size[in], n = s->r.step;
        s->r.n_wanted = 0;
        if (n == cap && n < s->max_span) {
            status = 1;
            break;
        }
        for (int64_t b = 0; b < n_beam; b++) {
            memcpy(seq + at, s->tokens + (in * width + b) * cap, n * sizeof *seq);
            memcpy(seq + at + n, s->suffix, s->n_suffix * sizeof *seq);
            for (int64_t j = 0; j < n_pieces; j++)
                rows[b * n_pieces + j] = row_after(&s->r, seq, at + n + s->pieces[j]);
        }
        if (s->r.n_wanted) {
            if (draw_wanted(&s->r))
                continue;
            status = 1;
            break;
        }
        /* Round n + 1 is scored unless the cap or the patience rule stops
           first; the rule stops after round n unless round n beats the
           best (and round n + 1 then comes 1 round after the best). */
        const int64_t expand = n == s->max_span || s->patience <= 1 ? EXPAND_NEVER
                               : n + 1 - s->best_step < s->patience ? EXPAND_ALWAYS
                               : EXPAND_IF_BETTER;
        int64_t top;
        const int64_t k = psgd_round(s, rows, expand, score, &top, children);
        s->forward_passes += n_beam;
        s->positions += (s->n_prefix + n + s->n_suffix + 1) * n_beam;
        /* Spans grow by one token a round, so on a tie the earlier best
           ranks first. */
        if (score[top] > s->best) {
            s->best = score[top];
            s->best_step = n;
            memcpy(s->best_tokens, s->tokens + (in * width + top) * cap, n * sizeof *s->best_tokens);
        }
        if (s->patience == 0)
            break;
        if (n == s->max_span) {
            s->at_cap = 1;
            break;
        }
        /* Step n + 1 is emitted (the logical count) but expanded only if
           it will be scored. */
        s->emitted++;
        if (n + 1 - s->best_step >= s->patience)
            break;
        for (int64_t i = 0; i < k; i++) {
            int64_t *to = s->tokens + (out * width + i) * cap;
            memcpy(to, s->tokens + (in * width + s->parent[i]) * cap, n * sizeof *to);
            to[n] = s->token[i];
        }
        s->cur = out;
        s->r.step++;
    }
done:
    free(seq);
    free(rows);
    free(score);
    free(children);
    return status;
}
