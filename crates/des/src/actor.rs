//! Actors and messages.
//!
//! Every simulated component (NIC, NameNode, TaskTracker, SPE, ...) is an
//! [`Actor`]: a state machine that reacts to [`Event`]s delivered by the
//! engine at specific instants. Actors never call each other directly; all
//! interaction is asynchronous message passing, which keeps the model
//! faithful to the distributed system being simulated and keeps borrows
//! trivially disjoint.

use core::any::Any;
use core::fmt;

use crate::sim::Ctx;

/// Stable identifier of an actor inside one [`crate::Sim`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// A sentinel id naming no actor (a placeholder until wiring).
    pub const ENGINE: ActorId = ActorId(u32::MAX);

    /// The raw index value (useful for compact per-actor tables).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ActorId::ENGINE {
            write!(f, "actor(engine)")
        } else {
            write!(f, "actor({})", self.0)
        }
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Handle for a scheduled timer; lets the owner cancel it before it fires.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerHandle(pub(crate) u64);

/// A type-erased message payload.
///
/// Blanket-implemented for every `'static + Debug + Send` type, so protocol
/// crates simply define plain structs/enums and send them; receivers
/// downcast with `downcast`, `peek` and `is` on `dyn Msg`.
pub trait Msg: Any + fmt::Debug + Send {
    /// Short label used in traces (the type name by default).
    fn label(&self) -> &'static str;
}

impl<T: Any + fmt::Debug + Send> Msg for T {
    fn label(&self) -> &'static str {
        core::any::type_name::<T>()
    }
}

// Each method upcasts the payload itself (`self` is the `dyn Msg`, not
// its box), so the `dyn Any` it asks has the payload's type.
impl dyn Msg {
    /// Attempts to take the payload as a concrete `T`, returning the box
    /// unchanged on type mismatch so the caller can try another type.
    pub fn downcast<T: Any>(self: Box<Self>) -> Result<Box<T>, Box<dyn Msg>> {
        if self.is::<T>() {
            Ok((self as Box<dyn Any>)
                .downcast::<T>()
                .expect("checked by is::<T>"))
        } else {
            Err(self)
        }
    }

    /// Borrowing probe for the payload type.
    pub fn peek<T: Any>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref::<T>()
    }

    /// `true` when the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        (self as &dyn Any).is::<T>()
    }
}

/// An occurrence delivered to an actor.
#[derive(Debug)]
pub enum Event {
    /// Delivered exactly once, when the actor is spawned (including the
    /// initial actors, which all receive `Start` at t=0 in spawn order).
    Start,
    /// A timer scheduled by the actor itself has fired.
    Timer {
        /// Identifies which arming produced this firing.
        handle: TimerHandle,
        /// The value the actor passed when arming the timer.
        tag: u64,
    },
    /// A message from another actor (or the harness) has arrived.
    Msg {
        /// The payload.
        msg: Box<dyn Msg>,
    },
}

impl Event {
    /// Short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            Event::Start => "Start",
            Event::Timer { .. } => "Timer",
            Event::Msg { msg, .. } => msg.as_ref().label(),
        }
    }
}

/// A simulated component.
///
/// The `Any` supertrait lets the harness recover an actor's concrete state
/// after a run via [`crate::Sim::actor_mut`] / [`crate::Sim::actor_ref`] —
/// the supported way for tests to inspect a driver actor without smuggling
/// results out through shared cells.
pub trait Actor: Send + Any {
    /// Reacts to one event. All side effects (sends, timers, spawning,
    /// stopping the run) go through [`Ctx`].
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event);

    /// The actor's name, read once at spawn: the part before the first `@`
    /// is its profiling class ([`crate::Stats::actor_costs`]).
    fn name(&self) -> String {
        "actor".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Ping(u32);

    #[derive(Debug)]
    struct Pong;

    #[test]
    fn downcast_by_value_and_reference() {
        let boxed: Box<dyn Msg> = Box::new(Ping(7));
        assert!(boxed.is::<Ping>());
        assert!(!boxed.is::<Pong>());
        assert_eq!(boxed.peek::<Ping>().unwrap().0, 7);
        let back = boxed.downcast::<Ping>().unwrap();
        assert_eq!(back.0, 7);
    }

    #[test]
    fn failed_downcast_returns_original() {
        let boxed: Box<dyn Msg> = Box::new(Ping(3));
        let back = boxed.downcast::<Pong>().unwrap_err();
        assert_eq!(back.peek::<Ping>().unwrap().0, 3);
    }

    #[test]
    fn labels_name_the_payload_type() {
        let boxed: Box<dyn Msg> = Box::new(Pong);
        assert!(boxed.as_ref().label().ends_with("Pong"));
        let ev = Event::Msg { msg: boxed };
        assert!(ev.label().ends_with("Pong"));
        assert_eq!(Event::Start.label(), "Start");
    }

    #[test]
    fn actor_id_formatting() {
        assert_eq!(format!("{:?}", ActorId(4)), "actor(4)");
        assert_eq!(format!("{}", ActorId::ENGINE), "actor(engine)");
        assert_eq!(ActorId(9).index(), 9);
    }
}
