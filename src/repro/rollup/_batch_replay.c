/* Columnar batch replay step loop.
 *
 * Replays K candidate orderings over the compiled per-transaction role
 * tables of `BatchReplayEngine` (see replay_engine.py).  Each candidate
 * owns one contiguous column-major copy of the state (cell = candidate *
 * n_rows + row), and its steps execute as true sequential scalar
 * IEEE-754 double operations in exactly the serial engine's order:
 * price lookup, feasibility (balance, strict ownership, supply
 * headroom, burn poisoning), then payer debit, payee credit, inventory
 * out, inventory in, fee debit, fee-pool credit, supply delta.  That
 * sequencing makes the kernel bit-identical to `OVM.replay` by
 * construction, including self-transfers, duplicate indices and the
 * +inf payer dummy.
 *
 * Compile with -O2 -ffp-contract=off and WITHOUT -ffast-math: floating
 * point contraction or reassociation would break the bit-identity
 * contract the differential tests enforce.
 *
 * Returns -1 on success.  A burn past the global supply (Eq. 10
 * poisoned) returns the offending candidate index >= 0 with `rem[c]`
 * still holding that candidate's pre-step remaining supply; the Python
 * caller re-raises the serial engine's identical TokenError from it.
 */

#include <stdint.h>

int64_t parole_batch_replay(
    int64_t length,            /* steps per candidate (L)              */
    int64_t k,                 /* candidates (K)                       */
    int64_t n_rows,            /* state rows per candidate             */
    const int64_t *orders,     /* (K, L) candidate-major tx indices    */
    const int64_t *pay_row,    /* (n_tx,) role tables                  */
    const int64_t *recv_row,
    const int64_t *dec_row,    /* doubles as the strict ownership row  */
    const int64_t *inc_row,
    const int64_t *fee_row,
    const int64_t *dsupply,    /* (n_tx,) +1 mint / -1 burn / 0        */
    const double *fees,        /* (n_tx,) total fee per tx             */
    const uint8_t *is_mint,    /* (n_tx,)                              */
    const uint8_t *is_burn,    /* (n_tx,)                              */
    const double *table,       /* (max_supply + 1,) price table or 0   */
    double max_supply_f,       /* closed-form pricing operands         */
    double initial_price,
    int64_t max_supply,
    int64_t strict,            /* ExecutionMode.STRICT ownership check */
    int64_t charge,            /* charge_fees                          */
    int64_t pool_row,          /* fee-pool row                         */
    double *bal,               /* (K * n_rows,) in/out                 */
    int64_t *inv,              /* (K * n_rows,) in/out                 */
    int64_t *rem,              /* (K,) remaining supply in/out         */
    uint8_t *exec_mat,         /* (L, K) out                           */
    double *price_mat,         /* (L, K) out                           */
    int64_t *rem_mat)          /* (L, K) out                           */
{
    for (int64_t t = 0; t < length; t++) {
        uint8_t *ex = exec_mat + t * k;
        double *pr = price_mat + t * k;
        int64_t *rm = rem_mat + t * k;
        for (int64_t c = 0; c < k; c++) {
            int64_t tx = orders[c * length + t];
            int64_t base = c * n_rows;
            int64_t r = rem[c];
            double price;
            if (table) {
                price = table[r];
            } else {
                double s = r < 1 ? 1.0 : (double)r;
                price = max_supply_f / s * initial_price;
            }
            int64_t pcell = base + pay_row[tx];
            int64_t dcell = base + dec_row[tx];
            double pb = bal[pcell];
            int executed = pb >= price;
            int own_ok = 1;
            if (strict) {
                own_ok = inv[dcell] >= 1;
                executed = executed && own_ok;
            }
            /* Eq. 1: a mint additionally needs supply headroom. */
            if (executed && is_mint[tx] && r < 1)
                executed = 0;
            /* `rem >= max_supply` <=> no live token left to burn: the
             * Eq. 10 read one past max supply poisons the price curve
             * and the serial engine raises.  Mirror its precedence: the
             * strict ownership check fails first, balance does not. */
            if (is_burn[tx] && r >= max_supply && own_ok)
                return c;
            double delta = executed ? price : 0.0;
            bal[pcell] = pb - delta;
            bal[base + recv_row[tx]] += delta;
            if (executed) {
                inv[dcell] -= 1;
                inv[base + inc_row[tx]] += 1;
            }
            if (charge) {
                double fee = executed ? fees[tx] : 0.0;
                bal[base + fee_row[tx]] -= fee;
                bal[base + pool_row] += fee;
            }
            if (executed) {
                int64_t d = dsupply[tx];
                if (d) {
                    r -= d;
                    rem[c] = r;
                }
            }
            ex[c] = (uint8_t)executed;
            pr[c] = price;
            rm[c] = r;
        }
    }
    return -1;
}
