/* Replay step loops for candidate-order scoring.
 *
 * Two entry points share one Eq. 1-6/10 transition, `step`, over the
 * compiled per-transaction role tables of `_RoleTables` (see
 * replay_engine.py):
 *
 * - `parole_batch_replay` replays K candidate orderings in lockstep.
 *   Each candidate owns one contiguous column-major copy of the state
 *   (cell = candidate * n_rows + row).
 * - `parole_resume` scores one ordering against a persistent cursor:
 *   it rewinds the working state to the longest prefix shared with the
 *   previously scored ordering (undoing each position from its undo
 *   record) and executes only the new suffix.
 *
 * `step` executes in exactly the OVM's order: price lookup, feasibility
 * (strict ownership, burn poisoning, balance, supply headroom), then
 * payer debit, payee credit, inventory out, inventory in, fee debit,
 * fee-pool credit, supply delta.  A skipped transaction writes nothing.
 * That sequencing makes both entry points bit-identical to `OVM.replay`
 * by construction, including self-transfers, duplicate indices and the
 * +inf payer dummy.
 *
 * Compile with -O2 -ffp-contract=off and WITHOUT -ffast-math: floating
 * point contraction or reassociation would break the bit-identity
 * contract the differential tests enforce.
 *
 * A burn past the global supply (Eq. 10 poisoned) stops either entry
 * point before that step writes anything; the Python caller re-raises
 * the OVM's identical TokenError from the remaining supply left behind.
 */

#include <stdint.h>

/* Columns of one transaction's row in `roles`. */
enum { PAY, RECV, DEC, INC, FEE, DSUPPLY, IS_MINT, IS_BURN, N_ROLES };

/* Read-only tables for one pre-state and transaction collection. */
typedef struct {
    const int64_t *roles;   /* (n_tx, N_ROLES) row indices and flags     */
    const double *fees;     /* (n_tx,) total fee per transaction         */
    const double *table;    /* (max_supply + 1,) Eq. 10 prices, or 0     */
    double initial_price;
    int64_t max_supply;
    int64_t strict;         /* ExecutionMode.STRICT ownership check      */
    int64_t charge;         /* charge_fees                               */
    int64_t pool_row;       /* fee-pool row                              */
    int64_t n_tx;
    int64_t n_rows;         /* state rows, dummy rows included           */
    int64_t n_real;         /* leading rows that are real users          */
} parole_tables;

/* The K=1 working state, its per-position columns and undo records. */
typedef struct {
    double *bal;            /* (n_rows,) working balances                */
    int64_t *inv;           /* (n_rows,) working inventory               */
    int64_t rem0;           /* remaining supply of the pre-state         */
    int64_t rem;            /* remaining supply after `length` steps     */
    int64_t length;         /* positions applied                         */
    int64_t *order;         /* (capacity,) applied transaction indices   */
    uint8_t *exec;          /* (capacity,) executed flag per position    */
    double *price;          /* (capacity,) price before each position    */
    int64_t *rem_after;     /* (capacity,) remaining supply after it     */
    double *undo;           /* (capacity, 4) prior balance cells         */
    const int64_t *wealth_rows;
    int64_t n_wealth;
    /* Results of the last call. */
    int64_t prefix;         /* positions kept from the previous order    */
    int64_t undone;         /* positions rewound                         */
    int64_t executed;       /* positions stepped                         */
    int64_t executed_count; /* positions whose transaction executed      */
    int64_t consistent;     /* no real row holds negative inventory      */
    double final_price;
    double *wealth;         /* (n_wealth,) final wealth per wealth row   */
} parole_cursor;

static inline double price_at(const parole_tables *t, int64_t r)
{
    if (t->table)
        return t->table[r];
    double s = r < 1 ? 1.0 : (double)r;
    return (double)t->max_supply / s * t->initial_price;
}

/* One transition of transaction `tx` against one state block.
 *
 * Writes the price before the step to `*price` and returns 1 when the
 * transaction executes, 0 when a constraint skips it, and -1 when it is
 * a burn past the global supply; only an executed step writes state,
 * recording the prior value of each balance cell it writes in `undo`.
 */
static inline int step(const parole_tables *t, int64_t tx, double *bal,
                       int64_t *inv, int64_t *rem, double *price,
                       double undo[4])
{
    const int64_t *role = t->roles + tx * N_ROLES;
    int64_t r = *rem;
    double p = price_at(t, r);
    *price = p;
    int own_ok = !t->strict || inv[role[DEC]] >= 1;
    /* `r >= max_supply` <=> no live token left to burn: the Eq. 10 read
     * one past max supply poisons the price curve.  The strict ownership
     * check fails first; the balance check cannot (the +inf payer). */
    if (role[IS_BURN] && r >= t->max_supply && own_ok)
        return -1;
    double pb = bal[role[PAY]];
    /* Eq. 1/3/5: ownership, the payer's balance, a mint's headroom. */
    if (!own_ok || pb < p || (role[IS_MINT] && r < 1))
        return 0;
    int64_t recv = role[RECV];
    undo[0] = pb;
    bal[role[PAY]] = pb - p;
    undo[1] = bal[recv];
    bal[recv] = undo[1] + p;
    inv[role[DEC]] -= 1;
    inv[role[INC]] += 1;
    if (t->charge) {
        int64_t payer = role[FEE];
        double fee = t->fees[tx];
        undo[2] = bal[payer];
        bal[payer] = undo[2] - fee;
        undo[3] = bal[t->pool_row];
        bal[t->pool_row] = undo[3] + fee;
    }
    *rem = r - role[DSUPPLY];
    return 1;
}

/* Reverse one executed `step`: restore its writes in reverse order, so
 * aliased cells (self-transfers, a payer that is the fee pool) end at
 * their first prior value. */
static inline void unstep(const parole_tables *t, int64_t tx, double *bal,
                          int64_t *inv, const double undo[4])
{
    const int64_t *role = t->roles + tx * N_ROLES;
    if (t->charge) {
        bal[t->pool_row] = undo[3];
        bal[role[FEE]] = undo[2];
    }
    inv[role[INC]] -= 1;
    inv[role[DEC]] += 1;
    bal[role[RECV]] = undo[1];
    bal[role[PAY]] = undo[0];
}

/* K candidates in lockstep.  Returns -1 on success; a poisoned burn
 * returns the offending candidate index >= 0 with `rem[c]` still holding
 * that candidate's pre-step remaining supply. */
int64_t parole_batch_replay(
    const parole_tables *t,
    int64_t length,            /* steps per candidate (L)              */
    int64_t k,                 /* candidates (K)                       */
    const int64_t *orders,     /* (K, L) candidate-major tx indices    */
    double *bal,               /* (K * n_rows,) in/out                 */
    int64_t *inv,              /* (K * n_rows,) in/out                 */
    int64_t *rem,              /* (K,) remaining supply in/out         */
    uint8_t *exec_mat,         /* (L, K) out                           */
    double *price_mat,         /* (L, K) out                           */
    int64_t *rem_mat)          /* (L, K) out                           */
{
    double undo[4];
    for (int64_t s = 0; s < length; s++) {
        for (int64_t c = 0; c < k; c++) {
            int64_t base = c * t->n_rows;
            int done = step(t, orders[c * length + s], bal + base, inv + base,
                            rem + c, price_mat + s * k + c, undo);
            if (done < 0)
                return c;
            exec_mat[s * k + c] = (uint8_t)done;
            rem_mat[s * k + c] = rem[c];
        }
    }
    return -1;
}

/* Score `order` on the cursor, resuming from the prefix it shares with
 * the previously scored order.  Returns -1 on success with the cursor's
 * result fields filled in; -2 when an index of the new suffix lies
 * outside [0, n_tx), before anything changes; and the position >= 0 of
 * a poisoned burn, with the cursor left at the valid prefix before it
 * (`rem` is that step's pre-step remaining supply). */
int64_t parole_resume(const parole_tables *t, parole_cursor *cur,
                      const int64_t *order, int64_t length)
{
    int64_t applied = cur->length;
    int64_t limit = applied < length ? applied : length;
    int64_t prefix = 0;
    while (prefix < limit && cur->order[prefix] == order[prefix])
        prefix++;
    for (int64_t p = prefix; p < length; p++)
        if (order[p] < 0 || order[p] >= t->n_tx)
            return -2;

    double *bal = cur->bal;
    int64_t *inv = cur->inv;
    for (int64_t p = applied - 1; p >= prefix; p--)
        if (cur->exec[p])
            unstep(t, cur->order[p], bal, inv, cur->undo + 4 * p);
    cur->rem = prefix ? cur->rem_after[prefix - 1] : cur->rem0;
    cur->prefix = prefix;
    cur->undone = applied - prefix;

    int64_t status = -1;
    int64_t p = prefix;
    for (; p < length; p++) {
        int done = step(t, order[p], bal, inv, &cur->rem, cur->price + p,
                        cur->undo + 4 * p);
        if (done < 0) {
            status = p;
            break;
        }
        cur->order[p] = order[p];
        cur->exec[p] = (uint8_t)done;
        cur->rem_after[p] = cur->rem;
    }
    cur->length = p;
    cur->executed = p - prefix;
    if (status >= 0)
        return status;

    int64_t count = 0;
    for (int64_t q = 0; q < length; q++)
        count += cur->exec[q];
    cur->executed_count = count;
    int64_t consistent = 1;
    for (int64_t row = 0; row < t->n_real; row++)
        if (inv[row] < 0) {
            consistent = 0;
            break;
        }
    cur->consistent = consistent;
    double fp = price_at(t, cur->rem);
    cur->final_price = fp;
    for (int64_t w = 0; w < cur->n_wealth; w++) {
        int64_t row = cur->wealth_rows[w];
        cur->wealth[w] = bal[row] + (double)inv[row] * fp;
    }
    return -1;
}
