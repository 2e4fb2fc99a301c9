/* Optional C accelerator for the SMP prefilter hot kernels.
 *
 * The two event sources of the Figure-4 runtime, below the interpreter and
 * bit-identical to the pure-Python paths:
 *
 * ``find_token``
 *     The searching stream's search step: frontier keyword search
 *     (``leftmost``: memchr('<') + longest-first memcmp, equivalent to the
 *     native backend's leftmost-longest search because every frontier
 *     keyword is a tag keyword whose '<' appears only at offset 0),
 *     false-match rejection and the quote-aware end-of-tag scan
 *     (``scan_tag_end``).  It completes one token, suspends with an
 *     explicit resume vector (the twin of the pure loop's ``_PH_*``
 *     phases), or reports that no token exists before end of input; the
 *     Python loop then takes the Figure-4 step.  Statistic deltas replay
 *     the native backend's formulas from the absolute search origin, so
 *     they do not depend on how the input was chunked.
 *
 * ``step_events``
 *     The multi-query shared scan: the same ``leftmost`` union sweep over
 *     the buffered window, and for each occurrence the driven streams that
 *     take it (``stream_takes``) step their Figure-4 tables -- compiled by
 *     ``compile_step`` from the one Python step -- and copy each decided
 *     span into their output buffer (one bytearray per query).
 *
 * The extension is strictly optional: ``repro.core.runtime`` and
 * ``repro.core.multi`` fall back to pure-Python loops with the same
 * output and statistics, which the property suite asserts.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

#define CAPSULE_NAME "repro._accel.keywords"

/* Resume phases of the token kernel (the protocol between ``find_token``
 * and the Python driver; SEARCH is split so ``searches`` is counted once
 * per logical search, like the pure matchers do on ``pending=None``). */
enum {
    PH_SEARCH_NEW = 0,
    PH_SEARCH_RESUME = 1,
    PH_VERIFY = 2,
    PH_TAG = 3,
    PH_QUOTE = 4,
};

/* Statuses of a ``find_token`` call. */
enum {
    ST_TOKEN = 0,
    ST_SUSPEND = 1,
    ST_NO_TOKEN = 2,
};

/* Tag-name bytes, replicated from repro.xml.escape.is_name_byte: ASCII
 * alphanumerics plus "_:-." plus every byte >= 0x80 (it belongs to a
 * multi-byte UTF-8 name character).  A static table, not locale isalnum. */
static unsigned char name_byte[256];

static void
init_name_byte(void)
{
    int i;
    for (i = 0; i < 256; i++) {
        name_byte[i] = (unsigned char)(
            (i >= '0' && i <= '9') || (i >= 'A' && i <= 'Z') ||
            (i >= 'a' && i <= 'z') || i == '_' || i == ':' ||
            i == '-' || i == '.' || i >= 0x80);
    }
}

/* A compiled keyword set (one automaton state's frontier vocabulary, or
 * the multi-query union vocabulary).  Keywords are stored longest first
 * (stable on the original order), so the first memcmp hit at a candidate
 * position is the longest keyword there -- the leftmost-longest rule. */
typedef struct {
    Py_ssize_t n;
    int is_single;          /* single-keyword statistics formulas */
    Py_ssize_t min_len;
    Py_ssize_t max_len;
    Py_ssize_t *lens;       /* [n], longest-first order */
    const char **kws;       /* [n], pointers into blob */
    Py_ssize_t *ids;        /* [n], original index of ordered keyword k */
    Py_ssize_t *len_by_id;  /* [n], keyword length by original index */
    char *blob;             /* owned copy of all keyword bytes */
} AccelKeywords;

static void
keywords_free(AccelKeywords *ak)
{
    if (ak == NULL)
        return;
    PyMem_Free(ak->lens);
    PyMem_Free(ak->kws);
    PyMem_Free(ak->ids);
    PyMem_Free(ak->len_by_id);
    PyMem_Free(ak->blob);
    PyMem_Free(ak);
}

static void
keywords_destructor(PyObject *capsule)
{
    keywords_free((AccelKeywords *)PyCapsule_GetPointer(capsule, CAPSULE_NAME));
}

static AccelKeywords *
keywords_from_capsule(PyObject *capsule)
{
    return (AccelKeywords *)PyCapsule_GetPointer(capsule, CAPSULE_NAME);
}

static PyObject *
accel_compile_keywords(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *seq_arg;
    int is_single;
    if (!PyArg_ParseTuple(args, "Op", &seq_arg, &is_single))
        return NULL;
    PyObject *seq = PySequence_Fast(seq_arg, "keywords must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n <= 0) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "at least one keyword is required");
        return NULL;
    }
    Py_ssize_t total = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        if (!PyBytes_Check(item) || PyBytes_GET_SIZE(item) == 0) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_TypeError,
                            "keywords must be non-empty bytes objects");
            return NULL;
        }
        total += PyBytes_GET_SIZE(item);
    }
    AccelKeywords *ak = PyMem_Calloc(1, sizeof(AccelKeywords));
    if (ak == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    ak->n = n;
    ak->is_single = is_single;
    ak->lens = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
    ak->kws = PyMem_Malloc((size_t)n * sizeof(const char *));
    ak->ids = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
    ak->len_by_id = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
    ak->blob = PyMem_Malloc((size_t)total);
    if (!ak->lens || !ak->kws || !ak->ids || !ak->len_by_id || !ak->blob) {
        keywords_free(ak);
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    char *cursor = ak->blob;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        Py_ssize_t len = PyBytes_GET_SIZE(item);
        memcpy(cursor, PyBytes_AS_STRING(item), (size_t)len);
        ak->kws[i] = cursor;
        ak->lens[i] = len;
        ak->ids[i] = i;
        ak->len_by_id[i] = len;
        cursor += len;
    }
    Py_DECREF(seq);
    /* Stable insertion sort, longest first (n is a handful of keywords). */
    for (Py_ssize_t i = 1; i < n; i++) {
        Py_ssize_t len = ak->lens[i];
        const char *kw = ak->kws[i];
        Py_ssize_t id = ak->ids[i];
        Py_ssize_t j = i;
        while (j > 0 && ak->lens[j - 1] < len) {
            ak->lens[j] = ak->lens[j - 1];
            ak->kws[j] = ak->kws[j - 1];
            ak->ids[j] = ak->ids[j - 1];
            j--;
        }
        ak->lens[j] = len;
        ak->kws[j] = kw;
        ak->ids[j] = id;
    }
    ak->max_len = ak->lens[0];
    ak->min_len = ak->lens[n - 1];
    PyObject *capsule = PyCapsule_New(ak, CAPSULE_NAME, keywords_destructor);
    if (capsule == NULL)
        keywords_free(ak);
    return capsule;
}

/* Leftmost-longest occurrence at or after ``from`` (local offsets):
 * memchr('<') candidates probed longest-first.  Equivalent to the native
 * backend's per-keyword ``bytes.find`` search because every keyword starts
 * with '<' and contains it nowhere else, so occurrences start exactly at
 * '<' bytes.  ``*found_k`` receives the *ordered* keyword slot. */
static Py_ssize_t
leftmost(const AccelKeywords *ak, const unsigned char *text, Py_ssize_t from,
         Py_ssize_t limit, Py_ssize_t *found_k)
{
    Py_ssize_t p = from < 0 ? 0 : from;
    while (p < limit) {
        const unsigned char *hit =
            memchr(text + p, '<', (size_t)(limit - p));
        if (hit == NULL)
            break;
        Py_ssize_t c = hit - text;
        for (Py_ssize_t k = 0; k < ak->n; k++) {
            Py_ssize_t len = ak->lens[k];
            if (c + len <= limit &&
                memcmp(text + c, ak->kws[k], (size_t)len) == 0) {
                *found_k = k;
                return c;
            }
        }
        p = c + 1;
    }
    *found_k = -1;
    return -1;
}

/* Quote-aware scan for the closing '>' at or after ``cur`` (local offsets).
 * Returns the '>' offset, or -1 with ``*suspend_quote``/``*suspend_cursor``
 * describing how to resume: quote > 0 means the scan stopped inside a
 * quoted value opened by that byte; otherwise ``*suspend_cursor`` is the
 * safe re-scan position for the next window. */
static Py_ssize_t
scan_tag_end(const unsigned char *text, Py_ssize_t cur, Py_ssize_t limit,
             int *suspend_quote, Py_ssize_t *suspend_cursor)
{
    *suspend_quote = 0;
    for (;;) {
        const unsigned char *gt = cur < limit ?
            memchr(text + cur, '>', (size_t)(limit - cur)) : NULL;
        if (gt == NULL) {
            *suspend_cursor = cur;
            return -1;
        }
        Py_ssize_t lgt = gt - text;
        const unsigned char *dq =
            memchr(text + cur, '"', (size_t)(lgt - cur));
        const unsigned char *sq =
            memchr(text + cur, '\'', (size_t)(lgt - cur));
        if (dq == NULL && sq == NULL)
            return lgt;
        const unsigned char *q;
        int qch;
        if (dq != NULL && (sq == NULL || dq < sq)) {
            q = dq;
            qch = '"';
        }
        else {
            q = sq;
            qch = '\'';
        }
        Py_ssize_t qpos = q - text;
        const unsigned char *close = qpos + 1 < limit ?
            memchr(text + qpos + 1, qch, (size_t)(limit - qpos - 1)) : NULL;
        if (close == NULL) {
            *suspend_quote = qch;
            *suspend_cursor = limit;
            return -1;
        }
        cur = (close - text) + 1;
    }
}

static PyObject *
accel_find_token(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *capsule;
    Py_buffer buf;
    Py_ssize_t tbase, wend, begin, pos, kwi, aux;
    int eof, phase, quote;
    if (!PyArg_ParseTuple(args, "Oy*nnpinnnni", &capsule, &buf, &tbase, &wend,
                          &eof, &phase, &begin, &pos, &kwi, &aux, &quote))
        return NULL;
    AccelKeywords *ak = keywords_from_capsule(capsule);
    if (ak == NULL) {
        PyBuffer_Release(&buf);
        return NULL;
    }
    const unsigned char *text = (const unsigned char *)buf.buf;
    Py_ssize_t wlen = wend - tbase;
    if (wlen > buf.len)
        wlen = buf.len;
    if (wlen < 0)
        wlen = 0;

    Py_ssize_t d_searches = 0, d_comparisons = 0, d_shifts = 0;
    Py_ssize_t d_shift_total = 0, d_matches = 0, d_local_scan = 0;
    int status = ST_SUSPEND;
    int bachelor = 0;
    Py_ssize_t tag_end = -1;
    Py_ssize_t keep_from = wend;

    /* Decode the resume vector into local coordinates. */
    Py_ssize_t lpos = 0, lmatch = -1, lcursor = 0, lquote_from = 0;
    Py_ssize_t match_id = kwi;
    switch (phase) {
    case PH_SEARCH_NEW:
    case PH_SEARCH_RESUME:
        lpos = pos - tbase;
        break;
    case PH_VERIFY:
        lmatch = pos - tbase;
        break;
    case PH_TAG:
        lmatch = pos - tbase;
        lcursor = aux - tbase;
        break;
    case PH_QUOTE:
        lmatch = pos - tbase;
        lquote_from = aux - tbase;
        break;
    default:
        PyBuffer_Release(&buf);
        PyErr_Format(PyExc_ValueError, "unknown resume phase %d", phase);
        return NULL;
    }

    for (;;) {
        if (phase == PH_SEARCH_NEW || phase == PH_SEARCH_RESUME) {
            if (phase == PH_SEARCH_NEW) {
                d_searches += 1;
                phase = PH_SEARCH_RESUME;
            }
            Py_ssize_t found_k;
            Py_ssize_t found = leftmost(ak, text, lpos, wlen, &found_k);
            if (ak->is_single) {
                if (found < 0) {
                    if (eof) {
                        Py_ssize_t spanned = wend - begin;
                        if (spanned < 0)
                            spanned = 0;
                        d_comparisons += spanned / ak->lens[0];
                        status = ST_NO_TOKEN;
                        break;
                    }
                    Py_ssize_t resume = wend - ak->lens[0] + 1;
                    if (resume < begin)
                        resume = begin;
                    pos = resume;
                    keep_from = resume;
                    status = ST_SUSPEND;
                    break;
                }
                Py_ssize_t fabs = found + tbase;
                Py_ssize_t spanned = fabs - begin + ak->lens[0];
                Py_ssize_t comp = spanned / ak->lens[0];
                d_comparisons += comp < 1 ? 1 : comp;
                Py_ssize_t shift = fabs - begin;
                if (shift < 1)
                    shift = 1;
                d_shifts += 1;
                d_shift_total += shift;
                d_matches += 1;
                lmatch = found;
                match_id = ak->ids[found_k];
                phase = PH_VERIFY;
            }
            else if (found >= 0 && (eof || found + ak->max_len <= wlen)) {
                Py_ssize_t fabs = found + tbase;
                Py_ssize_t spanned = fabs - begin + 1; /* >= 1 */
                Py_ssize_t comp = spanned / ak->min_len;
                d_comparisons += comp < 1 ? 1 : comp;
                Py_ssize_t shift = fabs - begin;
                if (shift < 1)
                    shift = 1;
                d_shifts += 1;
                d_shift_total += shift;
                d_matches += 1;
                lmatch = found;
                match_id = ak->ids[found_k];
                phase = PH_VERIFY;
            }
            else if (eof) { /* found < 0 at end of input */
                Py_ssize_t spanned = wend - begin;
                if (spanned < 0)
                    spanned = 0;
                if (spanned) {
                    Py_ssize_t comp = spanned / ak->min_len;
                    d_comparisons += comp < 1 ? 1 : comp;
                }
                status = ST_NO_TOKEN;
                break;
            }
            else { /* none found, or a longer straddling keyword could win */
                Py_ssize_t resume = wend - ak->max_len + 1;
                if (resume < begin)
                    resume = begin;
                pos = resume;
                keep_from = resume;
                status = ST_SUSPEND;
                break;
            }
        }
        if (phase == PH_VERIFY) {
            Py_ssize_t after = lmatch + ak->len_by_id[match_id];
            if (after >= wlen && !eof) {
                pos = lmatch + tbase;
                keep_from = pos;
                status = ST_SUSPEND;
                break;
            }
            if (after < wlen && name_byte[text[after]]) {
                /* A longer tag name extends the keyword: false match. */
                d_local_scan += 1;
                d_searches += 1; /* the rejection starts a new search */
                begin = lmatch + tbase + 1;
                lpos = lmatch + 1;
                phase = PH_SEARCH_RESUME;
                continue;
            }
            lcursor = after;
            phase = PH_TAG;
        }
        if (phase == PH_QUOTE) {
            const unsigned char *close = lquote_from < wlen ?
                memchr(text + lquote_from, quote,
                       (size_t)(wlen - lquote_from)) : NULL;
            if (close == NULL) {
                if (eof) {
                    status = ST_NO_TOKEN;
                    break;
                }
                pos = lmatch + tbase;
                aux = wend; /* resume the quote skip from the new bytes */
                keep_from = pos;
                status = ST_SUSPEND;
                break;
            }
            lcursor = (close - text) + 1;
            phase = PH_TAG;
        }
        /* PH_TAG: quote-aware scan for the closing '>'. */
        {
            int suspend_quote;
            Py_ssize_t suspend_cursor;
            Py_ssize_t lend = scan_tag_end(text, lcursor, wlen,
                                           &suspend_quote, &suspend_cursor);
            if (lend < 0) {
                if (eof) {
                    status = ST_NO_TOKEN;
                    break;
                }
                pos = lmatch + tbase;
                keep_from = pos;
                if (suspend_quote) {
                    phase = PH_QUOTE;
                    quote = suspend_quote;
                    aux = wend;
                }
                else {
                    phase = PH_TAG;
                    aux = suspend_cursor + tbase;
                }
                status = ST_SUSPEND;
                break;
            }
            Py_ssize_t after = lmatch + ak->len_by_id[match_id];
            d_local_scan += lend - after + 1;
            bachelor = lend > after && text[lend - 1] == '/';
            pos = lmatch + tbase;
            tag_end = lend + tbase;
            keep_from = tag_end;
            status = ST_TOKEN;
            break;
        }
    }

    kwi = match_id;
    PyBuffer_Release(&buf);
    return Py_BuildValue("(iinnnninninnnnnn)", status, phase, begin, pos, kwi,
                         aux, quote, keep_from, tag_end, bachelor, d_searches,
                         d_comparisons, d_shifts, d_shift_total, d_matches,
                         d_local_scan);
}

/* ====================================================================
 * Native DrivenStream stepping (the multi-query shared-scan hot loop)
 * ==================================================================== */

#define STEP_CAPSULE_NAME "repro._accel.step"

/* Per-stream state block layout (int64 slots, stride SS_STRIDE).  The
 * Python side exports a DrivenStream into one block before a step_events
 * call and imports it (state fields plus the d_* statistic deltas) after. */
enum {
    SS_ACTIVE = 0,          /* 1 while the stream takes part in dispatch */
    SS_ROW = 1,             /* current automaton state, as a table row */
    SS_SEARCH_FROM = 2,     /* absolute search origin (cursor) */
    SS_PENDING_JUMP = 3,    /* table-J jump not yet resolved in this state */
    SS_LAST_POS = 4,        /* last false-match position (dedupe), or -1 */
    SS_COPY_ACTIVE = 5,     /* inside an open copy region */
    SS_COPY_TAG = 6,        /* interned tag id of the open region */
    SS_COPY_EMITTED = 7,    /* absolute offset the region is emitted up to */
    SS_D_LOCAL_SCAN = 8,    /* local_scan_chars delta */
    SS_D_TOKENS_MATCHED = 9,
    SS_D_TOKENS_COPIED = 10,
    SS_D_REGIONS = 11,      /* regions_copied delta */
    SS_D_JUMPS = 12,        /* initial_jumps delta */
    SS_D_JUMP_CHARS = 13,   /* initial_jump_chars delta */
    SS_DONE = 14,           /* automaton reached a final state */
    SS_STRIDE = 16,
};

/* Statuses of a ``step_events`` call. */
enum {
    STEP_DONE = 0,        /* window fully dispatched up to the holdback */
    STEP_SUSPEND = 1,     /* a decision needs input beyond the window */
    STEP_UNCLOSED_EOF = 2, /* a subscribed tag never closes before EOF */
    STEP_BAIL = 3,        /* a transition error: replay the event in Python */
    STEP_OUTPUT_FULL = 4, /* output buffers full: emit them, call again */
};

/* Output bytes (all streams together) at which the kernel returns so
 * Python hands the buffers to the sinks; one event may add a region more. */
#define STEP_OUTPUT_CAP ((Py_ssize_t)64 * 1024)

/* Action codes (repro.core.tables.Action, flattened by compile order). */
enum {
    ACT_NOP = 0,
    ACT_COPY_TAG = 1,
    ACT_COPY_ON = 2,
    ACT_COPY_OFF = 3,
};

/* Per-cell flags of the (state row, union keyword id) decision table. */
enum {
    CF_OPEN = 1,          /* the symbol opens a tag: the bachelor path applies */
    CF_BACHELOR_COPY = 2, /* a bachelor tag here is emitted (wants copy) */
};

/* One stream's Figure-4 decision logic flattened over the *union* keyword
 * id space: every per-event decision (vocabulary membership, transition,
 * action, bachelor open+close pair) is one row*K + kid lookup. */
typedef struct {
    Py_ssize_t S;       /* state rows */
    Py_ssize_t K;       /* union keyword count (must match the scan capsule) */
    int64_t *next;      /* [S*K] next row, or -1 when not in the vocabulary */
    int64_t *action;    /* [S*K] action code of the target state */
    int64_t *tagid;     /* [S*K] interned tag-name id of the symbol */
    int64_t *cellflags; /* [S*K] CF_* bits */
    int64_t *b_next;    /* [S*K] row after the bachelor close pair, or -2
                         * when the close transition is missing (bail) */
    int64_t *jump;      /* [S] table-J jump on entering the row */
    int64_t *is_final;  /* [S] 1 when the row is accepting */
} StepTables;

static void
step_tables_free(StepTables *t)
{
    if (t == NULL)
        return;
    PyMem_Free(t->next);
    PyMem_Free(t->action);
    PyMem_Free(t->tagid);
    PyMem_Free(t->cellflags);
    PyMem_Free(t->b_next);
    PyMem_Free(t->jump);
    PyMem_Free(t->is_final);
    PyMem_Free(t);
}

static void
step_destructor(PyObject *capsule)
{
    step_tables_free(
        (StepTables *)PyCapsule_GetPointer(capsule, STEP_CAPSULE_NAME));
}

static int64_t *
copy_i64(const Py_buffer *src, Py_ssize_t items, const char *what)
{
    if (src->len != items * (Py_ssize_t)sizeof(int64_t)) {
        PyErr_Format(PyExc_ValueError,
                     "%s table must hold exactly %zd int64 items", what, items);
        return NULL;
    }
    int64_t *out = PyMem_Malloc((size_t)src->len);
    if (out == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    memcpy(out, src->buf, (size_t)src->len);
    return out;
}

static PyObject *
accel_compile_step(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer next, action, tagid, cellflags, b_next, jump, is_final;
    Py_ssize_t S, K;
    if (!PyArg_ParseTuple(args, "y*y*y*y*y*y*y*nn", &next, &action, &tagid,
                          &cellflags, &b_next, &jump, &is_final, &S, &K))
        return NULL;
    PyObject *capsule = NULL;
    StepTables *t = NULL;
    if (S <= 0 || K <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "step tables need at least one state and one keyword");
        goto done;
    }
    t = PyMem_Calloc(1, sizeof(StepTables));
    if (t == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    t->S = S;
    t->K = K;
    if ((t->next = copy_i64(&next, S * K, "next")) == NULL ||
        (t->action = copy_i64(&action, S * K, "action")) == NULL ||
        (t->tagid = copy_i64(&tagid, S * K, "tagid")) == NULL ||
        (t->cellflags = copy_i64(&cellflags, S * K, "cellflags")) == NULL ||
        (t->b_next = copy_i64(&b_next, S * K, "b_next")) == NULL ||
        (t->jump = copy_i64(&jump, S, "jump")) == NULL ||
        (t->is_final = copy_i64(&is_final, S, "final")) == NULL)
        goto done;
    capsule = PyCapsule_New(t, STEP_CAPSULE_NAME, step_destructor);
    if (capsule != NULL)
        t = NULL; /* owned by the capsule now */
done:
    if (capsule == NULL)
        step_tables_free(t);
    PyBuffer_Release(&next);
    PyBuffer_Release(&action);
    PyBuffer_Release(&tagid);
    PyBuffer_Release(&cellflags);
    PyBuffer_Release(&b_next);
    PyBuffer_Release(&jump);
    PyBuffer_Release(&is_final);
    return capsule;
}

/* DrivenStream._takes: the table cell when stream ``st`` takes the
 * occurrence of union keyword ``kid`` at ``abs_start``, else -1.  Taken
 * means: the keyword is in the stream's current frontier vocabulary, and
 * the occurrence lies at or after the search origin (plus the table-J
 * jump, which a delivered occurrence resolves) and not at the position a
 * longer keyword already took.  With ``commit`` 0 nothing is mutated (the
 * bail precheck); otherwise the jump is resolved and counted. */
static inline Py_ssize_t
stream_takes(int64_t *st, const StepTables *tab, Py_ssize_t kid,
             Py_ssize_t abs_start, int commit)
{
    if (!st[SS_ACTIVE])
        return -1;
    int64_t row = st[SS_ROW];
    Py_ssize_t cell = row * tab->K + kid;
    if (tab->next[cell] < 0)
        return -1; /* not in this stream's current frontier vocabulary */
    int64_t from = st[SS_SEARCH_FROM];
    if (st[SS_PENDING_JUMP]) {
        int64_t j = tab->jump[row];
        from += j;
        if (commit) {
            if (j) {
                st[SS_D_JUMPS] += 1;
                st[SS_D_JUMP_CHARS] += j;
                st[SS_SEARCH_FROM] = from;
            }
            st[SS_PENDING_JUMP] = 0;
        }
    }
    if (abs_start < from || abs_start == st[SS_LAST_POS])
        return -1;
    return cell;
}

/* DrivenStream.push_false_match: one rejected occurrence of keyword
 * ``kid`` at ``abs_start`` (the tag name extends the keyword, or the
 * keyword is a shadowed prefix of the scanned occurrence). */
static void
step_false_match(int64_t *st, const StepTables *tab, Py_ssize_t kid,
                 Py_ssize_t abs_start)
{
    if (stream_takes(st, tab, kid, abs_start, 1) >= 0) {
        st[SS_LAST_POS] = abs_start;
        st[SS_D_LOCAL_SCAN] += 1;
    }
}

static PyObject *
accel_step_events(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *capsule, *steps, *outputs;
    Py_buffer state, pstarts, pids, buf;
    Py_ssize_t tbase, scan_from;
    int eof;
    if (!PyArg_ParseTuple(args, "OOw*y*y*y*nnpO!", &capsule, &steps, &state,
                          &pstarts, &pids, &buf, &tbase, &scan_from, &eof,
                          &PyTuple_Type, &outputs))
        return NULL;
    PyObject *result = NULL;
    StepTables **tabs = NULL;
    AccelKeywords *ak = keywords_from_capsule(capsule);
    if (ak == NULL)
        goto done;
    if (state.len % (SS_STRIDE * sizeof(int64_t)) != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "state array must hold 16-int64 stream blocks");
        goto done;
    }
    Py_ssize_t nstreams =
        state.len / (SS_STRIDE * (Py_ssize_t)sizeof(int64_t));
    if (!PyTuple_Check(steps) || PyTuple_GET_SIZE(steps) != nstreams ||
        PyTuple_GET_SIZE(outputs) != nstreams) {
        PyErr_SetString(PyExc_ValueError,
                        "steps or outputs do not match the state array");
        goto done;
    }
    if (pstarts.len < (ak->n + 1) * (Py_ssize_t)sizeof(int64_t)) {
        PyErr_SetString(PyExc_ValueError, "prefix-start table too small");
        goto done;
    }
    tabs = PyMem_Malloc((size_t)(nstreams ? nstreams : 1) *
                        sizeof(StepTables *));
    if (tabs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t s = 0; s < nstreams; s++) {
        PyObject *item = PyTuple_GET_ITEM(steps, s);
        if (!PyByteArray_Check(PyTuple_GET_ITEM(outputs, s))) {
            PyErr_SetString(PyExc_TypeError, "outputs must be bytearrays");
            goto done;
        }
        StepTables *t =
            (StepTables *)PyCapsule_GetPointer(item, STEP_CAPSULE_NAME);
        if (t == NULL)
            goto done;
        if (t->K != ak->n) {
            PyErr_SetString(PyExc_ValueError,
                            "stale step program: keyword spaces differ");
            goto done;
        }
        tabs[s] = t;
    }

    const unsigned char *text = (const unsigned char *)buf.buf;
    Py_ssize_t wlen = buf.len;
    int64_t *st_all = (int64_t *)state.buf;
    const int64_t *prefix_starts = (const int64_t *)pstarts.buf;
    const int64_t *prefix_ids = (const int64_t *)pids.buf;
    Py_ssize_t buffered = 0;
    Py_ssize_t tokens_delta = 0;
    Py_ssize_t holdback = eof ? wlen : wlen - ak->max_len + 1;
    Py_ssize_t p = scan_from - tbase;
    if (p < 0)
        p = 0;
    int status = STEP_DONE;
    Py_ssize_t next_from = tbase + holdback;

    while (p < holdback) {
        Py_ssize_t found_k;
        Py_ssize_t c = leftmost(ak, text, p, wlen, &found_k);
        if (c < 0 || c >= holdback)
            break;
        Py_ssize_t kid = ak->ids[found_k];
        Py_ssize_t after = c + ak->lens[found_k];
        Py_ssize_t abs_start = c + tbase;

        /* Subscription probe: some live stream's current frontier
         * vocabulary contains this keyword (== the Python registry). */
        int sub_any = 0;
        for (Py_ssize_t s = 0; s < nstreams; s++) {
            int64_t *st = st_all + s * SS_STRIDE;
            const StepTables *tab = tabs[s];
            if (st[SS_ACTIVE] && tab->next[st[SS_ROW] * tab->K + kid] >= 0) {
                sub_any = 1;
                break;
            }
        }
        if (!sub_any)
            goto prefixes; /* the prefix expansion still applies */
        if (after >= wlen && !eof) {
            /* The extends verdict needs input beyond the window. */
            status = STEP_SUSPEND;
            next_from = abs_start;
            goto out;
        }
        if (after < wlen && name_byte[text[after]]) {
            /* False match: the tag name extends the keyword. */
            for (Py_ssize_t s = 0; s < nstreams; s++)
                step_false_match(st_all + s * SS_STRIDE, tabs[s], kid,
                                 abs_start);
            goto prefixes;
        }
        {
            int suspend_quote;
            Py_ssize_t suspend_cursor;
            Py_ssize_t closing = scan_tag_end(text, after, wlen,
                                              &suspend_quote, &suspend_cursor);
            if (closing < 0) {
                status = eof ? STEP_UNCLOSED_EOF : STEP_SUSPEND;
                next_from = abs_start;
                goto out;
            }
            if (buffered >= STEP_OUTPUT_CAP) {
                /* Before any stream mutates: emit, then resume here. */
                status = STEP_OUTPUT_FULL;
                next_from = abs_start;
                goto out;
            }
            int bachelor = closing > after && text[closing - 1] == '/';
            Py_ssize_t scan_chars = closing - after + 1;
            Py_ssize_t abs_end = closing + tbase;
            if (bachelor) {
                /* Bail precheck: a bachelor open whose close transition is
                 * missing raises in Python.  Detect it *before* mutating
                 * any stream so the event replays identically there. */
                for (Py_ssize_t s = 0; s < nstreams; s++) {
                    const StepTables *tab = tabs[s];
                    Py_ssize_t cell = stream_takes(st_all + s * SS_STRIDE,
                                                   tab, kid, abs_start, 0);
                    if (cell >= 0 && (tab->cellflags[cell] & CF_OPEN) &&
                        tab->b_next[cell] < 0) {
                        status = STEP_BAIL;
                        next_from = abs_start;
                        goto out;
                    }
                }
            }
            tokens_delta += 1;
            for (Py_ssize_t s = 0; s < nstreams; s++) {
                int64_t *st = st_all + s * SS_STRIDE;
                const StepTables *tab = tabs[s];
                Py_ssize_t cell = stream_takes(st, tab, kid, abs_start, 1);
                if (cell < 0)
                    continue;
                st[SS_D_LOCAL_SCAN] += scan_chars;
                st[SS_D_TOKENS_MATCHED] += 1;
                int64_t flags = tab->cellflags[cell];
                int64_t newrow;
                int64_t copy_from = -1; /* start of the span copied here */
                if (bachelor && (flags & CF_OPEN)) {
                    /* Open and close behaviour in one step (Figure 4); the
                     * tag is emitted at most once, and not at all inside
                     * an active copy region. */
                    if (!st[SS_COPY_ACTIVE] && (flags & CF_BACHELOR_COPY)) {
                        copy_from = abs_start;
                        st[SS_D_TOKENS_COPIED] += 1;
                    }
                    newrow = tab->b_next[cell];
                }
                else {
                    newrow = tab->next[cell];
                    int64_t act = tab->action[cell];
                    if (act == ACT_COPY_ON) {
                        if (!st[SS_COPY_ACTIVE]) {
                            st[SS_COPY_ACTIVE] = 1;
                            st[SS_COPY_TAG] = tab->tagid[cell];
                            st[SS_COPY_EMITTED] = abs_start;
                        }
                    }
                    else if (act == ACT_COPY_OFF) {
                        if (st[SS_COPY_ACTIVE] &&
                            tab->tagid[cell] == st[SS_COPY_TAG]) {
                            copy_from = st[SS_COPY_EMITTED];
                            st[SS_D_REGIONS] += 1;
                            st[SS_D_TOKENS_COPIED] += 1;
                            st[SS_COPY_ACTIVE] = 0;
                            st[SS_COPY_TAG] = 0;
                            st[SS_COPY_EMITTED] = 0;
                        }
                        else if (!st[SS_COPY_ACTIVE]) {
                            /* Asymmetric table entries degrade gracefully
                             * to copying the closing tag itself. */
                            copy_from = abs_start;
                            st[SS_D_TOKENS_COPIED] += 1;
                        }
                    }
                    else if (act == ACT_COPY_TAG) {
                        if (!st[SS_COPY_ACTIVE]) {
                            copy_from = abs_start;
                            st[SS_D_TOKENS_COPIED] += 1;
                        }
                    }
                }
                if (copy_from >= 0) {
                    /* Append the span to the stream's output buffer;
                     * adjacent spans of a stream merge by construction. */
                    PyObject *out = PyTuple_GET_ITEM(outputs, s);
                    Py_ssize_t used = PyByteArray_GET_SIZE(out);
                    Py_ssize_t len = abs_end + 1 - (Py_ssize_t)copy_from;
                    if (copy_from < tbase) {
                        PyErr_SetString(PyExc_ValueError,
                                        "copy span starts below the window");
                        goto done;
                    }
                    if (PyByteArray_Resize(out, used + len) < 0)
                        goto done; /* the event is half applied: fatal */
                    memcpy(PyByteArray_AS_STRING(out) + used,
                           text + (copy_from - tbase), (size_t)len);
                    buffered += len;
                }
                st[SS_ROW] = newrow;
                st[SS_SEARCH_FROM] = abs_end;
                st[SS_PENDING_JUMP] = 1;
                st[SS_LAST_POS] = -1;
                if (tab->is_final[newrow]) {
                    st[SS_DONE] = 1;
                    st[SS_ACTIVE] = 0;
                }
            }
        }
    prefixes:
        /* Union keywords that are prefixes of this occurrence co-occur at
         * its position and are always false matches there. */
        for (Py_ssize_t pi = prefix_starts[kid]; pi < prefix_starts[kid + 1];
             pi++) {
            Py_ssize_t pid = (Py_ssize_t)prefix_ids[pi];
            for (Py_ssize_t s = 0; s < nstreams; s++)
                step_false_match(st_all + s * SS_STRIDE, tabs[s], pid,
                                 abs_start);
        }
        p = after; /* the union scan is non-overlapping (finditer) */
    }

out:
    result = Py_BuildValue("(inn)", status, next_from, tokens_delta);
done:
    PyMem_Free(tabs);
    PyBuffer_Release(&state);
    PyBuffer_Release(&pstarts);
    PyBuffer_Release(&pids);
    PyBuffer_Release(&buf);
    return result;
}

static PyMethodDef accel_methods[] = {
    {"compile_keywords", accel_compile_keywords, METH_VARARGS,
     "compile_keywords(keywords, is_single) -> capsule\n\n"
     "Compile a sequence of non-empty bytes keywords (tag keywords: '<'\n"
     "only at offset 0) into the C search structure used by find_token\n"
     "and step_events.  Keyword ids are the original sequence indices."},
    {"find_token", accel_find_token, METH_VARARGS,
     "find_token(capsule, buf, tbase, wend, eof, phase, begin, pos, kwi,\n"
     "           aux, quote)\n"
     "-> (status, phase, begin, pos, kwi, aux, quote, keep_from, tag_end,\n"
     "    bachelor, d_searches, d_comparisons, d_shifts, d_shift_total,\n"
     "    d_matches, d_local_scan)\n\n"
     "One resumable token step: frontier search, false-match rejection\n"
     "and end-of-tag scan over one buffered window (absolute offsets;\n"
     "buf[0] sits at absolute offset tbase).  status 0 = token complete,\n"
     "1 = suspended (resume vector in phase..quote), 2 = no token before\n"
     "end of input.  The d_* fields are statistic deltas replaying the\n"
     "native backend formulas."},
    {"compile_step", accel_compile_step, METH_VARARGS,
     "compile_step(next, action, tagid, cellflags, b_next, jump, final,\n"
     "             S, K) -> capsule\n\n"
     "Compile one stream's flat Figure-4 step tables (int64 buffers of\n"
     "S*K cells / S rows over the union keyword id space of the scan\n"
     "capsule) into an owned C structure for step_events.  The buffers\n"
     "are copied; the capsule owns the copy."},
    {"step_events", accel_step_events, METH_VARARGS,
     "step_events(scan_capsule, step_capsules, state, prefix_starts,\n"
     "            prefix_ids, buf, tbase, scan_from, eof, outputs)\n"
     "-> (status, next_from, tokens_delta)\n\n"
     "The shared-scan event source in one C pass: the union keyword\n"
     "sweep over buf, and for each occurrence the Figure-4 step of every\n"
     "stream that takes it, from its compile_step capsule (one per stream;\n"
     "a stream with SS_ACTIVE 0 takes nothing).  'state' holds one 16-int64\n"
     "block per stream (see the SS_* layout); 'outputs' is a tuple of one\n"
     "bytearray per stream, and the bytes of each decided copy span are\n"
     "appended to its stream's bytearray in document order.\n"
     "status: 0 done, 1 suspend at next_from, 2 unclosed tag at EOF\n"
     "(next_from = tag start), 3 bail to the Python path (transition\n"
     "error; nothing was mutated for the offending event), 4 output\n"
     "full: the buffers hold >= 64 KiB (emit them, call again from\n"
     "next_from)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef accel_module = {
    PyModuleDef_HEAD_INIT,
    "repro._accel",
    "C hot-path kernels for the SMP prefilter (optional; see repro.accel).",
    -1,
    accel_methods,
};

/* Bumped whenever a kernel's Python-visible signature or a table/state
 * layout changes; repro.accel refuses a build whose ABI_VERSION differs
 * from its own (a stale in-place build would otherwise fail mid-run). */
#define REPRO_ACCEL_ABI_VERSION 3

PyMODINIT_FUNC
PyInit__accel(void)
{
    init_name_byte();
    PyObject *module = PyModule_Create(&accel_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "ABI_VERSION",
                                REPRO_ACCEL_ABI_VERSION) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
