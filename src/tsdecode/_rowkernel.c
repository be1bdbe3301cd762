/* The compiled kernel: the finished rows of a block of contexts, one step
   of the full-sentence beam search and one PSGD scoring round. Each
   exported function is named ``tsd_`` and its ``rowkernel.Functions``
   field.

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

   ``tsd_beam_step`` is ``decode._PythonStep``: it picks the same finishes
   and the same next beam, in the same order, with the same scores. A
   candidate's score is one IEEE add, ``lp + row[tok]``, as in Python; no
   transcendental is called.

   ``tsd_psgd_round`` is ``decode._PythonRound`` over a
   ``decode._SpanScorer``: each item's whole-sequence total, added in the
   scorer's order, its normalised score, the round's first-ranked item and
   the top children. The caller passes the length term of the
   normalisation, so no transcendental is called here either. Both search
   functions keep their top k with one helper, ``top_children``.

   ``rowkernel.load`` checks each exported function against its Python
   twin before any is used; the summation order of numpy is reproduced,
   and checked there, not assumed. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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

/* Writes the finished rows of ``n_rows`` contexts of one source to the
   ``n_rows`` x ``vocab`` block ``rows``, every entry of it. ``contexts``
   holds the contexts' lengths, then their ids one context after another.
   A context's raw row is 0 at BOS (column 0) and, in the other columns,
   the Dirichlet row keyed by the context folded onto ``h_row``, or onto
   ``h_alt`` when ``rate`` > 0 and the first draw keyed by the context
   folded onto ``h_coin`` is below ``rate``. Each raw row is then finished:
   BOS zeroed, each entry divided by the row's sum, times ``scale``, plus
   ``eps``, and BOS zeroed again. A Dirichlet row's sum is positive, so the
   finished row's sum is too. */
void tsd_block(uint64_t h_row, uint64_t h_alt, uint64_t h_coin, double rate,
               const int64_t *contexts, int64_t n_rows, int64_t vocab,
               double concentration, double scale, double eps, double *rows)
{
    const int64_t *tokens = contexts + n_rows;
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t n = contexts[r];
        double *row = rows + r * vocab;
        uint64_t h = h_row;
        if (rate > 0.0 && uniform(fold(h_coin, tokens, n), 1) < rate)
            h = h_alt;
        row[0] = 0.0;
        dirichlet(fold(h, tokens, n), vocab - 1, concentration, row + 1);
        double total = add_reduce(row, vocab);
        for (int64_t v = 0; v < vocab; v++)
            row[v] = row[v] / total * scale + eps;
        row[0] = 0.0;
        tokens += n;
    }
}

/* One decode's beam and buffers, allocated by ``rowkernel.CompiledStep``.
   The beam lives on side ``cur`` of ``lp``, ``progress``, ``bank`` and
   ``order``, side s at s times the side's length; a step writes the next
   beam to the other side, and the caller flips ``cur`` to take it. All the
   hypotheses of a beam have the same length, and no two the same tokens. */
struct tsd_beam {
    int64_t vocab;          /* entries per row */
    int64_t width;          /* the beam width: hypotheses per side, at most */
    int64_t eos;            /* the EOS id */
    int64_t lo, n_content;  /* the content ids, lo .. lo + n_content - 1 */
    int64_t n_phrases;
    int64_t complete;       /* the bank of a constraint-complete hypothesis */
    int64_t cur;
    int64_t n_finished;     /* outputs of the last step: finishes marked */
    int64_t hard;           /* ... and how many ranked in a window or slot */
    int64_t size[2];        /* hypotheses on each side */
    const int64_t *phrases; /* the phrases' tokens, one phrase after another */
    const int64_t *starts;  /* phrase j is phrases[starts[j] .. starts[j + 1]) */
    const double *rows;     /* the step's log row per hypothesis, width x vocab */
    int64_t *parent;        /* the next beam in rank order: parent index */
    int64_t *token;         /* ... and new token */
    int64_t *finished;      /* the parent index of each finish, in order */
    double *finish_score;   /* ... and its EOS score */
    double *lp;             /* raw score per hypothesis */
    int64_t *progress;      /* per hypothesis, its position in each phrase */
    int64_t *bank;          /* per hypothesis, its summed progress */
    int64_t *order;         /* per hypothesis, the rank of its tokens among
                               the side's tokens in lexicographic order */
};

int64_t tsd_beam_step(struct tsd_beam *s, int64_t last);

/* A candidate: an EOS completion (token -1) or a one-token child. */
struct cand {
    double score;
    int64_t parent, token, bank;
    const int64_t *progress;
};

/* Whether ``a`` ranks before ``b`` under ``scoring.rank``: the higher
   score, then the shorter tokens (an EOS completion keeps its parent's
   tokens, one fewer than a child's), then the lexicographically smaller. */
static int precedes(const int64_t *order, const struct cand *a, const struct cand *b)
{
    if (a->score != b->score)
        return a->score > b->score;
    if ((a->token < 0) != (b->token < 0))
        return a->token < 0;
    if (a->parent != b->parent)
        return order[a->parent] < order[b->parent];
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

static void finish(struct tsd_beam *s, int64_t parent, double score)
{
    s->finished[s->n_finished] = parent;
    s->finish_score[s->n_finished++] = score;
}

/* Writes to ``top`` the first ``width`` one-token content children of the
   ``n_beam`` hypotheses in rank order, and returns how many it wrote.
   Hypothesis b has score ``lp[b]``, log row ``rows + b * stride`` and tie
   rank ``order[b]``. */
static int64_t top_children(const double *lp, const double *rows, int64_t stride, int64_t n_beam,
                            int64_t lo, int64_t n_content, const int64_t *order, int64_t width,
                            struct cand *top)
{
    int64_t k = 0;
    for (int64_t b = 0; b < n_beam; b++) {
        const double *row = rows + b * stride;
        for (int64_t tok = lo; tok < lo + n_content; tok++) {
            struct cand child = {lp[b] + row[tok], b, tok, 0, NULL};
            if (k == width && !precedes(order, &child, &top[k - 1]))
                continue;
            int64_t i = k < width ? k++ : width - 1;
            for (; i > 0 && precedes(order, &child, &top[i - 1]); i--)
                top[i] = top[i - 1];
            top[i] = child;
        }
    }
    return k;
}

/* Writes to ``to`` the tie rank of each of ``n`` children, the rank of its
   tokens among theirs in lexicographic order: its parent's rank in
   ``order``, then its new token. */
static void next_order(const int64_t *order, const int64_t *parent, const int64_t *token, int64_t n,
                       int64_t *to)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t rank = 0;
        for (int64_t j = 0; j < n; j++) {
            int64_t a = order[parent[j]], b = order[parent[i]];
            rank += a < b || (a == b && token[j] < token[i]);
        }
        to[i] = rank;
    }
}

/* One step from the beam on side ``cur`` and its ``rows``: marks the
   finishes and, unless ``last``, writes the next beam to the other side.
   Returns the next beam's size, or -1 when memory runs out. */
int64_t tsd_beam_step(struct tsd_beam *s, int64_t last)
{
    const int64_t in = s->cur, out = 1 - in, n_beam = s->size[in];
    const int64_t width = s->width, vocab = s->vocab, n_phrases = s->n_phrases;
    const double *lp = s->lp + in * width;
    const int64_t *progress = s->progress + in * width * n_phrases, *bank = s->bank + in * width;
    const int64_t *order = s->order + in * width;
    const int64_t max_cands = n_beam + width + n_phrases * n_beam;
    struct cand *cands = malloc(max_cands * sizeof *cands);
    int64_t *ranked = malloc(max_cands * sizeof *ranked);
    int64_t *in_slot = malloc(max_cands * sizeof *in_slot);
    int64_t *moved = malloc((max_cands * n_phrases + 1) * sizeof *moved);
    int64_t *counts = calloc(3 * (s->complete + 1), sizeof *counts);
    int64_t n = 0, next = 0;
    s->n_finished = 0;
    s->hard = 0;
    if (!cands || !ranked || !in_slot || !moved || !counts) {
        next = -1;
        goto done;
    }

    /* EOS candidates of the complete hypotheses; one finishes when EOS is
       its argmax and, under constraints, at the length budget. */
    for (int64_t b = 0; b < n_beam; b++) {
        if (bank[b] != s->complete)
            continue;
        const double *row = s->rows + b * vocab;
        struct cand eos = {lp[b] + row[s->eos], b, -1, bank[b], progress + b * n_phrases};
        cands[n++] = eos;
        if (argmax(row, vocab) == s->eos || (n_phrases && last))
            finish(s, b, eos.score);
    }
    if (last)
        goto done;

    /* The top ``width`` content expansions, kept in rank order. */
    const int64_t first_child = n;
    n += top_children(lp, s->rows, vocab, n_beam, s->lo, s->n_content, order, width, cands + n);

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
                struct cand child = {lp[b] + s->rows[b * vocab + tok], b, tok, 0, NULL};
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
        for (; j > 0 && precedes(order, &cands[i], &cands[ranked[j - 1]]); j--)
            ranked[j] = ranked[j - 1];
        ranked[j] = i;
    }

    /* Slots shared evenly over the non-empty banks, remainders to higher
       banks. */
    int64_t *slots = counts, *seen = slots + s->complete + 1;
    int64_t *kept = seen + s->complete + 1;
    int64_t n_banks = 0;
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
        s->parent[next] = c->parent;
        s->token[next] = c->token;
        s->lp[out * width + next] = c->score;
        s->bank[out * width + next] = c->bank;
        for (int64_t j = 0; j < n_phrases; j++)
            s->progress[(out * width + next) * n_phrases + j] = c->progress[j];
        next++;
    }
    next_order(order, s->parent, s->token, next, s->order + out * width);
    s->size[out] = next;

done:
    free(cands);
    free(ranked);
    free(in_slot);
    free(moved);
    free(counts);
    return next;
}

/* One PSGD decode's beam and buffers, allocated by ``rowkernel.CompiledRound``
   for one ``decode._SpanScorer``. As in ``struct tsd_beam``, the beam lives on
   side ``cur`` of ``lp``, ``order`` and ``carry``; a round that expands writes
   the children to the other side. Every item of a beam holds a span of
   ``n_terms`` tokens, and no two hold the same span; its carry is its span's
   ``n_terms`` terms, each token's term in its parent's next-token row. */
struct tsd_psgd {
    int64_t vocab;          /* entries per row */
    int64_t width;          /* the beam width: items per side, at most */
    int64_t eos;            /* the EOS id */
    int64_t lo, n_content;  /* the content ids, lo .. lo + n_content - 1 */
    int64_t per_item;       /* rows per item: its next-token row, the rows of
                               the suffix terms the span changes, then its EOS
                               row unless that is fixed */
    int64_t n_suffix;       /* suffix terms the span changes */
    int64_t n_head, n_tail; /* the scorer's head and tail terms */
    int64_t fixed_eos;      /* the EOS term: the first head term (1) or read
                               from each item's last row (0) */
    int64_t mean;           /* the score: total / norm (1) or total - norm (0) */
    int64_t capacity;       /* carry doubles per item */
    int64_t n_terms;        /* span tokens per item of side ``cur`` */
    int64_t cur;
    int64_t best;           /* output of the last round: its first-ranked item */
    int64_t size[2];        /* items on each side */
    const int64_t *suffix;  /* the suffix tokens the span changes */
    const double *terms;    /* the head terms, then the tail terms */
    const double *rows;     /* the round's rows, per_item per item */
    double *score;          /* per item, its normalised score */
    int64_t *parent;        /* the children in rank order: parent index */
    int64_t *token;         /* ... and new token */
    double *lp;             /* per item, its span's summed log-probability */
    int64_t *order;         /* per item, the rank of its span among the
                               side's spans in lexicographic order */
    double *carry;          /* per item, ``capacity`` doubles of carry */
};

int64_t tsd_psgd_round(struct tsd_psgd *s, double norm, double best, int64_t expand);

/* Scores the items on side ``cur`` from their ``rows``, ``norm`` being the
   length or its log, and marks the first-ranked. When ``expand`` is 2, or
   1 and that item scores above ``best``, writes the top ``width`` children
   to the other side. Returns how many children it wrote, or -1 when memory
   runs out. */
int64_t tsd_psgd_round(struct tsd_psgd *s, double norm, double best, int64_t expand)
{
    const int64_t in = s->cur, out = 1 - in, n_beam = s->size[in], cap = s->capacity;
    const int64_t stride = s->per_item * s->vocab, width = s->width;
    const int64_t *order = s->order + in * width;
    const double *carry = s->carry + in * width * cap;
    int64_t top = 0;
    for (int64_t b = 0; b < n_beam; b++) {
        /* The order ``_SpanScorer.total`` adds in: EOS, prefix, span,
           changed suffix terms, then the tail. -0.0 + x is x, so a fixed
           EOS term, the first head term, starts the sum unchanged. */
        const double *rows = s->rows + b * stride;
        double total = s->fixed_eos ? -0.0 : rows[(s->per_item - 1) * s->vocab + s->eos];
        for (int64_t j = 0; j < s->n_head; j++)
            total += s->terms[j];
        for (int64_t j = 0; j < s->n_terms; j++)
            total += carry[b * cap + j];
        for (int64_t j = 0; j < s->n_suffix; j++)
            total += rows[j * s->vocab + s->suffix[j]];
        for (int64_t j = 0; j < s->n_tail; j++)
            total += s->terms[s->n_head + j];
        double score = s->score[b] = s->mean ? total / norm : total - norm;
        if (b == 0 || score > s->score[top] || (score == s->score[top] && order[b] < order[top]))
            top = b;
    }
    s->best = top;
    if (!(expand == 2 || (expand == 1 && s->score[top] > best)))
        return 0;

    struct cand *children = malloc(width * sizeof *children);
    if (!children)
        return -1;
    int64_t k = top_children(s->lp + in * width, s->rows, stride, n_beam, s->lo, s->n_content, order, width,
                             children);
    for (int64_t i = 0; i < k; i++) {
        const int64_t parent = children[i].parent, tok = children[i].token;
        double *to = s->carry + (out * width + i) * cap;
        s->parent[i] = parent;
        s->token[i] = tok;
        s->lp[out * width + i] = children[i].score;
        for (int64_t j = 0; j < s->n_terms; j++)
            to[j] = carry[parent * cap + j];
        to[s->n_terms] = s->rows[parent * stride + tok];
    }
    next_order(order, s->parent, s->token, k, s->order + out * width);
    s->size[out] = k;
    free(children);
    return k;
}
