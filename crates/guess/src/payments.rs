//! Probe payments — the paper's counter-measure to selfish probing.
//!
//! §3.3: *"One straightforward proposal is to have peers 'pay' for each
//! probe. Peers will then be motivated to probe as few peers as possible
//! to answer their queries. Such a solution does require a payment
//! mechanism, such as \[PPay\]."*
//!
//! This module models the economics without the cryptography: every peer
//! holds a credit balance; sending a probe costs one credit; answering a
//! probe earns one. Balances replenish slowly (a small allowance per
//! second) so honest query rates are unaffected, but a selfish peer
//! blasting 100-probe volleys drains its balance and is forced down to
//! the allowance rate — the incentive the paper wants.

use simkit::stats::CounterSet;
use simkit::time::SimTime;

use crate::addr::{put_slot, SlotId};
use crate::config::Config;

/// Parameters of the probe-payment economy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaymentParams {
    /// Credits a newborn peer starts with.
    pub initial_balance: f64,
    /// Credits accrued per second of uptime (the base allowance).
    pub allowance_per_sec: f64,
    /// Hard cap on hoarded credits.
    pub max_balance: f64,
    /// Credits earned by answering one probe.
    pub earn_per_answer: f64,
}

impl Default for PaymentParams {
    fn default() -> Self {
        PaymentParams {
            initial_balance: 200.0,
            allowance_per_sec: 1.0,
            max_balance: 600.0,
            earn_per_answer: 0.5,
        }
    }
}

/// A peer's probe-credit account; the economy's [`PaymentParams`] are
/// passed in, shared by every account.
///
/// # Examples
///
/// ```
/// use guess::payments::{PaymentParams, ProbeAccount};
/// use simkit::time::SimTime;
///
/// let params = PaymentParams {
///     initial_balance: 2.0,
///     allowance_per_sec: 0.0,
///     ..PaymentParams::default()
/// };
/// let mut acct = ProbeAccount::new(&params, SimTime::ZERO);
/// assert!(acct.pay_probe(&params, SimTime::ZERO));
/// assert!(acct.pay_probe(&params, SimTime::ZERO));
/// assert!(!acct.pay_probe(&params, SimTime::ZERO)); // broke
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ProbeAccount {
    balance: f64,
    last_accrual: SimTime,
}

impl ProbeAccount {
    /// Opens an account at `now` with the configured starting balance.
    #[must_use]
    pub fn new(params: &PaymentParams, now: SimTime) -> Self {
        ProbeAccount {
            balance: params.initial_balance,
            last_accrual: now,
        }
    }

    fn accrue(&mut self, params: &PaymentParams, now: SimTime) {
        let dt = now.saturating_since(self.last_accrual).as_secs();
        self.balance = (self.balance + dt * params.allowance_per_sec).min(params.max_balance);
        self.last_accrual = self.last_accrual.max(now);
    }

    /// Pays for one outgoing probe. False, and nothing paid, when the
    /// balance (after accrual) is below one credit: the probe must not
    /// be sent.
    #[must_use]
    pub fn pay_probe(&mut self, params: &PaymentParams, now: SimTime) -> bool {
        self.accrue(params, now);
        let paid = self.balance >= 1.0;
        if paid {
            self.balance -= 1.0;
        }
        paid
    }

    /// Credits the account for answering someone else's probe.
    pub fn earn_answer(&mut self, params: &PaymentParams, now: SimTime) {
        self.accrue(params, now);
        self.balance = (self.balance + params.earn_per_answer).min(params.max_balance);
    }
}

/// One probe-credit account per slot, opened afresh at birth; `None`
/// (no table) unless the config sets `probe_payments`.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    params: Option<PaymentParams>,
    accounts: Vec<ProbeAccount>,
}

impl Ledger {
    /// The economy `cfg` sets up, or none.
    pub(crate) fn new(cfg: &Config) -> Self {
        Ledger {
            params: cfg.protocol.probe_payments,
            accounts: Vec::new(),
        }
    }

    /// Birth: `slot`'s new occupant opens an account at `now`.
    pub(crate) fn open(&mut self, slot: SlotId, now: SimTime) {
        if let Some(p) = &self.params {
            put_slot(&mut self.accounts, slot, ProbeAccount::new(p, now));
        }
    }

    /// Probe gate: `slot`'s occupant pays for a probe sent at `at`. A
    /// peer that cannot afford it must stop searching until its
    /// allowance refills (§3.3); that is counted and returns false.
    pub(crate) fn pay(&mut self, slot: SlotId, at: SimTime, counters: &mut CounterSet) -> bool {
        let paid = match (&self.params, self.accounts.get_mut(slot.index())) {
            (Some(p), Some(account)) => account.pay_probe(p, at),
            _ => true,
        };
        if !paid {
            counters.incr("probe_budget_exhausted");
        }
        paid
    }

    /// Earn hook: `slot`'s occupant answered a probe at `at`.
    pub(crate) fn earn(&mut self, slot: SlotId, at: SimTime) {
        if let Some(p) = &self.params {
            self.accounts[slot.index()].earn_answer(p, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ProbeAccount {
        /// Current balance after accruing allowance up to `now`.
        pub(crate) fn balance(&mut self, params: &PaymentParams, now: SimTime) -> f64 {
            self.accrue(params, now);
            self.balance
        }
    }

    impl Ledger {
        /// The number of open accounts.
        pub(crate) fn len(&self) -> usize {
            self.accounts.len()
        }

        /// `slot`'s balance at `now`; panics when the economy is off.
        pub(crate) fn balance(&mut self, slot: SlotId, now: SimTime) -> f64 {
            let p = self.params.unwrap();
            self.accounts[slot.index()].balance(&p, now)
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn starts_with_initial_balance() {
        let params = PaymentParams::default();
        let mut a = ProbeAccount::new(&params, t(0.0));
        assert_eq!(a.balance(&params, t(0.0)), 200.0);
    }

    #[test]
    fn probes_cost_one_credit() {
        let params = PaymentParams {
            initial_balance: 3.0,
            allowance_per_sec: 0.0,
            ..PaymentParams::default()
        };
        let mut a = ProbeAccount::new(&params, t(0.0));
        assert!(a.pay_probe(&params, t(0.0)));
        assert!(a.pay_probe(&params, t(0.0)));
        assert!(a.pay_probe(&params, t(0.0)));
        assert!(!a.pay_probe(&params, t(0.0)));
    }

    #[test]
    fn allowance_refills_over_time() {
        let params = PaymentParams {
            initial_balance: 0.0,
            allowance_per_sec: 2.0,
            ..PaymentParams::default()
        };
        let mut a = ProbeAccount::new(&params, t(0.0));
        assert!(!a.pay_probe(&params, t(0.0)));
        assert!(a.pay_probe(&params, t(1.0)), "2 credits accrued after 1s");
        assert!(a.pay_probe(&params, t(1.0)));
        assert!(!a.pay_probe(&params, t(1.0)));
    }

    #[test]
    fn balance_is_capped() {
        let params = PaymentParams {
            initial_balance: 10.0,
            allowance_per_sec: 100.0,
            max_balance: 50.0,
            ..PaymentParams::default()
        };
        let mut a = ProbeAccount::new(&params, t(0.0));
        assert_eq!(a.balance(&params, t(1000.0)), 50.0);
    }

    #[test]
    fn answering_earns_credit() {
        let params = PaymentParams {
            initial_balance: 0.0,
            allowance_per_sec: 0.0,
            earn_per_answer: 0.5,
            ..PaymentParams::default()
        };
        let mut a = ProbeAccount::new(&params, t(0.0));
        a.earn_answer(&params, t(0.0));
        a.earn_answer(&params, t(0.0));
        assert!(a.pay_probe(&params, t(0.0)), "two answers fund one probe");
        assert!(!a.pay_probe(&params, t(0.0)));
    }

    #[test]
    fn time_never_runs_backwards_in_accrual() {
        let params = PaymentParams::default();
        let mut a = ProbeAccount::new(&params, t(100.0));
        // An accrual query with an earlier timestamp must not panic or
        // mint credit.
        let before = a.balance(&params, t(100.0));
        let after = a.balance(&params, t(50.0));
        assert_eq!(before, after);
    }
}
