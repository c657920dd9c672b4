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
/// crates simply define plain structs/enums and send them. A receiver
/// declares the types it accepts with [`inbox!`](crate::inbox) and decodes
/// each arriving box once, into its inbox enum.
pub trait Msg: Any + fmt::Debug + Send {
    /// Short label used in traces (the type name by default).
    fn label(&self) -> &'static str;
}

impl<T: Any + fmt::Debug + Send> Msg for T {
    fn label(&self) -> &'static str {
        core::any::type_name::<T>()
    }
}

// Each method upcasts the payload itself (the `dyn Msg`, not its box),
// so the `dyn Any` it asks has the payload's type.
impl dyn Msg {
    /// Attempts to take the payload as a concrete `T`, returning the box
    /// unchanged on type mismatch so the caller can try another type.
    pub fn downcast<T: Any>(self: Box<Self>) -> Result<Box<T>, Box<dyn Msg>> {
        if (&*self as &dyn Any).is::<T>() {
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
}

/// Declares an actor's inbox: an enum with one `Box<T>` variant per
/// payload type the actor can receive, named after the type, and
/// `decode`, which turns an arriving `Box<dyn Msg>` into it.
///
/// `decode` tries the types in declaration order (each miss costs one type
/// check, so list the busiest first) and moves the sent allocation into
/// the variant: nothing is copied or boxed again. A payload of a type the
/// inbox does not declare panics with the inbox's name and the payload's
/// [`Msg::label`]: a message no arm handles is a wiring fault, never
/// something to drop. A handler is then one `decode` and an exhaustive
/// `match`, as in the crate-level example. An inbox may be empty, for an
/// actor that receives no messages at all.
///
/// ```text
/// accelmr_des::inbox! {
///     enum Inbox { Ping, Shutdown }
/// }
/// ```
#[macro_export]
macro_rules! inbox {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {}) => {
        $(#[$meta])*
        $vis enum $name {}

        impl $name {
            /// Panics: the inbox declares no type. It returns `!`, not the
            /// empty enum, because rustc flags the code after a call that
            /// returns an uninhabited type as unreachable.
            $vis fn decode(msg: ::std::boxed::Box<dyn $crate::Msg>) -> ! {
                panic!("{} cannot receive {}", stringify!($name), msg.as_ref().label())
            }
        }
    };
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($ty:ident),+ $(,)? }) => {
        $(#[$meta])*
        $vis enum $name {
            $($ty(::std::boxed::Box<$ty>),)*
        }

        impl $name {
            /// Takes `msg` as the first declared type it is.
            ///
            /// # Panics
            ///
            /// On a payload of a type the inbox does not declare.
            $vis fn decode(msg: ::std::boxed::Box<dyn $crate::Msg>) -> Self {
                $(
                    let msg = match msg.downcast::<$ty>() {
                        Ok(payload) => return $name::$ty(payload),
                        Err(other) => other,
                    };
                )*
                panic!("{} cannot receive {}", stringify!($name), msg.as_ref().label())
            }
        }
    };
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

    /// Declared by no inbox below.
    #[derive(Debug)]
    struct Stray;

    #[test]
    fn downcast_by_value_and_reference() {
        let boxed: Box<dyn Msg> = Box::new(Ping(7));
        assert!(boxed.peek::<Pong>().is_none());
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

    crate::inbox! {
        enum Inbox { Ping, Pong }
    }

    crate::inbox! {
        enum Empty {}
    }

    #[test]
    fn inbox_decodes_each_type_to_its_variant() {
        assert!(matches!(Inbox::decode(Box::new(Ping(5))), Inbox::Ping(p) if p.0 == 5));
        assert!(matches!(Inbox::decode(Box::new(Pong)), Inbox::Pong(_)));
    }

    #[test]
    fn inbox_keeps_the_sent_allocation() {
        let sent = Box::new(Ping(9));
        let at: *const Ping = &*sent;
        match Inbox::decode(sent) {
            Inbox::Ping(p) => assert!(core::ptr::eq(&*p, at)),
            Inbox::Pong(_pong) => panic!("decoded a Ping as a Pong"),
        }
    }

    #[test]
    #[should_panic(expected = "Inbox cannot receive accelmr_des::actor::tests::Stray")]
    fn inbox_panics_on_an_undeclared_type() {
        let _ = Inbox::decode(Box::new(Stray));
    }

    #[test]
    #[should_panic(expected = "Empty cannot receive accelmr_des::actor::tests::Ping")]
    fn an_empty_inbox_receives_nothing() {
        Empty::decode(Box::new(Ping(1)));
    }

    #[test]
    fn actor_id_formatting() {
        assert_eq!(format!("{:?}", ActorId(4)), "actor(4)");
        assert_eq!(format!("{}", ActorId::ENGINE), "actor(engine)");
        assert_eq!(ActorId(9).index(), 9);
    }
}
